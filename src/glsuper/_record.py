"""Slotted records: what this package used of the PEP 557 decorator, cheaply.

Every CLI call is a fresh interpreter that, with no bytecode cached
(``PYTHONDONTWRITEBYTECODE``), compiles what it imports.  There the PEP 557
module costs about 13 ms to import (it pulls in ``inspect``, ``ast``, ``dis``
and ``tokenize``) and 1-2 ms per decorated class to compile its methods.

A ``Record`` names its fields in ``__slots__``; it is built by position or
keyword, then ``__post_init__`` runs.  It compares and hashes by its field
values (``NotImplemented`` against another class), prints as
``Name(field=value, ...)`` and refuses assignment.  ``order=True`` in the
class line adds ordering; ``frozen=False`` allows assignment, with no hash.
"""

import operator


def _by_values(op):
    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op(self._values(self), other._values(other))

    return compare


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r}")


class Record:
    __slots__ = ()

    def __init_subclass__(cls, order=False, frozen=True):
        cls._fields = tuple(cls.__slots__)
        cls._values = operator.attrgetter(*cls._fields)  # one field: its value alone
        if order:
            for name in ("lt", "le", "gt", "ge"):
                setattr(cls, f"__{name}__", _by_values(getattr(operator, name)))
        if not frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args), **kwargs)
            if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(fields)}")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    __eq__ = _by_values(operator.eq)
    __setattr__ = __delattr__ = _refuse

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(getattr(self, name) for name in self._fields)
