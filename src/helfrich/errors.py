"""Exception types shared across the package."""


class HelfrichError(Exception):
    """Base class for all package errors."""


class ParameterError(HelfrichError):
    """A primitive or config parameter is outside its allowed range.

    Carries the offending field name in ``field``.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class MeshInputError(HelfrichError):
    """Mesh file could not be parsed or describes unsupported geometry.

    ``line`` is the 1-based line number when known, else None.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)


class OperatorError(HelfrichError):
    """Discrete operator assembly failed (degenerate face, bad field shape)."""


class UnsupportedError(HelfrichError):
    """Operation not available for this input (documented restriction),
    such as an open mesh or surface given to one that needs a closed one."""


class FitError(HelfrichError):
    """Sphere fit failed; typically signals coplanar (plane-like) input."""


class NumericalError(HelfrichError):
    """A numerical evaluation produced a non-finite value."""
