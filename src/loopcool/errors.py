"""Exception types shared across the package."""


class LoopcoolError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(LoopcoolError, ValueError):
    """Invalid parameter record or configuration document."""


class CurveDomainError(LoopcoolError, ValueError):
    """Evaluation of a tabulated curve outside its sampled band."""


class InstabilityBoundaryError(LoopcoolError):
    """Closed-loop denominator vanished: configuration sits on the
    instability boundary and loop spectra are undefined."""


class OptomechanicalInstabilityError(LoopcoolError):
    """Total mechanical damping is negative; no stationary state exists."""


class NoStablePointError(LoopcoolError):
    """An optimization found no stable operating point within its bounds."""


class BandError(LoopcoolError, ValueError):
    """Frequency band too narrow or too coarsely sampled for the request."""


class FitError(LoopcoolError):
    """Peak extraction failed (no peak, secondary peak, or ill-conditioned)."""


class ConvergenceError(LoopcoolError):
    """Iterative scheme did not converge within its refinement cap."""


class ParseError(LoopcoolError, ValueError):
    """Malformed input file.  Carries file/line context in the message."""
