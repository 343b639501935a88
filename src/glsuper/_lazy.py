"""Submodules whose body runs on first attribute use, safely across threads.

A registered submodule sits in ``sys.modules`` and on its parent package from
the start, so ``from . import polytope`` binds it without running it.  The
first attribute access runs its body under one package-wide lock; the class
becomes ``types.ModuleType`` only after the body has run, so a thread that
waited on the lock never sees a half-run module (as in CPython's locked
``importlib.util._LazyModule`` from 3.12.3 on; the 3.11 ``LazyLoader``
switches the class first).
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import threading
import types

# one lock for every body: a body that touches another lazy submodule runs it
# in the same thread, under the same lock, so two loads never wait on each other
_LOCK = threading.RLock()
_LOADING: set[str] = set()


class _LazyModule(types.ModuleType):
    def __getattribute__(self, attr):
        with _LOCK:
            if type(self) is _LazyModule:
                spec = types.ModuleType.__getattribute__(self, "__spec__")
                # the body, or a body it runs, reads the half-built module
                if spec.name in _LOADING:
                    return types.ModuleType.__getattribute__(self, attr)
                _LOADING.add(spec.name)
                try:
                    spec.loader.exec_module(self)
                finally:
                    _LOADING.discard(spec.name)
                types.ModuleType.__setattr__(self, "__class__", types.ModuleType)
        return getattr(self, attr)

    def __setattr__(self, attr, value):
        self.__dict__  # run the body first, so that it cannot overwrite value
        types.ModuleType.__setattr__(self, attr, value)


def register(package: str, names: tuple[str, ...]) -> None:
    """Put each submodule of package in ``sys.modules`` and on package, unrun."""
    parent = sys.modules[package]
    for name in names:
        spec = importlib.util.find_spec(f"{package}.{name}")
        module = importlib.util.module_from_spec(spec)
        module.__class__ = _LazyModule
        sys.modules[spec.name] = module
        setattr(parent, name, module)


def exports(package: str, table: dict[str, tuple[str, ...]]):
    """A PEP 562 ``__getattr__`` for package: each name in ``table[sub]`` is
    read from submodule ``sub`` on first use, then bound on package."""
    owner = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{owner[name]}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
