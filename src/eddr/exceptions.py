"""Exception hierarchy shared across the package."""


class EddrError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(EddrError, ValueError):
    """Array arguments have incompatible or invalid shapes."""


class DataFormatError(EddrError, ValueError):
    """Input file could not be parsed into a numeric matrix."""


class NotPositiveDefiniteError(EddrError, ValueError):
    """A matrix required to be (semi)definite fails its factorization check."""


class CalibrationInfeasibleError(EddrError, ArithmeticError):
    """Plug-in estimates are outside the region where a cut-off is defined.

    Raised instead of silently clamping, e.g. when the estimated scale
    parameter is non-positive or the plug-in variance of the conditional
    error is negative.
    """


class ScoreOverflowError(EddrError, ArithmeticError):
    """A finite point has a discriminant score outside double precision."""


class SimulationError(EddrError, RuntimeError):
    """A simulation run violated one of its own integrity checks."""
