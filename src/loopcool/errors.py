"""Exception types shared across the package."""


class LoopcoolError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(LoopcoolError, ValueError):
    """Invalid parameter record or configuration document."""


class CurveDomainError(LoopcoolError, ValueError):
    """Evaluation of a tabulated curve outside its sampled band."""


class InstabilityBoundaryError(LoopcoolError):
    """The loop sits on a stability boundary (a vanished loop denominator, a real-axis
    pole, a delay on a crossing, the neutral boundary); its spectra are undefined."""


class OptomechanicalInstabilityError(LoopcoolError):
    """No stationary state: an unstable closed loop, a singular solve or kappa_eff <= 0."""


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


#: the errors that mark an operating point unstable rather than invalid
INSTABILITIES = (OptomechanicalInstabilityError, InstabilityBoundaryError)
