"""Exception types shared across the package, and the integer test behind DomainError."""


class GlsuperError(Exception):
    """Base class for all library errors."""


class ParameterError(GlsuperError, ValueError):
    """Structurally invalid or mismatched parameters (wrong (m|n), wrong length)."""


class DomainError(GlsuperError, ValueError):
    """Input outside an operation's mathematical domain (e.g. non-dominant weight)."""


class DegenerateCaseError(DomainError):
    """A construction that degenerates for these parameters; use the dedicated path."""


class ResourceLimitError(GlsuperError, RuntimeError):
    """Requested computation exceeds the documented desk-scale bounds."""


class FitError(GlsuperError, RuntimeError):
    """No consistent quasipolynomial fit within the allowed period bound."""


class InternalCheckError(GlsuperError, RuntimeError):
    """A built object fails an identity it must satisfy (a bracket relation, a grading)."""


def is_int(value) -> bool:
    """Whether value is an int and not a bool, which would pass as 0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_int(name: str, value) -> None:
    """Refuse a value that is not an int (bools included) with DomainError."""
    if not is_int(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
