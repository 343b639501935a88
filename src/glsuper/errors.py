"""Exception types shared across the package."""


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
