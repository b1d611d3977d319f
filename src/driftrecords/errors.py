"""Exception types shared across the package."""


class DriftRecordsError(Exception):
    """Base class for package-specific failures."""


class QuadratureError(DriftRecordsError):
    """Adaptive integration did not reach the requested tolerance.

    Carries the best available estimate and its error gauge so callers can
    decide whether the achieved accuracy is still usable: floats, or one
    array entry per component of a vector integrand.
    """

    def __init__(self, message, best_estimate=float("nan"), error_bound=float("nan")):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


class IllConditionedError(DriftRecordsError):
    """A ratio or quotient is dominated by numerical error in its inputs."""

