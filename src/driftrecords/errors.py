"""Exception types shared across the package, and the checks that decide
whether an argument is valid input.

Every bad-input failure is a ``DriftRecordsError``; it subclasses
``ValueError`` so that callers catching the builtin keep working.
"""
import math
import numbers


class DriftRecordsError(ValueError):
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


def require_int(name, value, least):
    """Reject ``value`` unless it is an integer >= ``least``: bool, float,
    NaN and inf included, numpy integers accepted."""
    # the exact type test first: the ABC check costs ~0.5 us per call
    integral = type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )
    if not integral or value < least:
        rule = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise DriftRecordsError(f"{name} must be {rule}, got {value!r}")


def require_finite(**values):
    """Reject any keyword value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DriftRecordsError(f"{name} must be finite, got {value}")


def require_positive(**values):
    """Reject any keyword value outside 0 < value < inf, NaN included."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise DriftRecordsError(f"{name} must be positive and finite, got {value}")
