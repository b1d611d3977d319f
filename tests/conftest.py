import math
import os

import numpy as np
import pytest

from driftrecords.analysis import load_series

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
FIXTURE_CSV = os.path.join(DATA_DIR, "synthetic_temperatures.csv")

# observation indices that are not integers >= 1
BAD_INDICES = [0, -3, True, 10.0, 2.5, math.nan, math.inf, "5", None]

# Every law parameter at 0, -1, NaN and +-inf, as (spec kind, name, value,
# the start of the error message or None where the rule accepts the value).
_BAD_VALUES = (0.0, -1.0, math.nan, math.inf, -math.inf)
LAW_PARAMETER_CASES = [
    (kind, name, value, f"{name} must be positive and finite")
    for kind, name in (("dagum", "b"), ("dagum", "q"), ("normal", "sigma"), ("exp", "rate"))
    for value in _BAD_VALUES
] + [
    (kind, name, value,
     f"{name} must be finite" if not math.isfinite(value)
     else "lo must be below hi" if name == "hi" else None)
    for kind, name in (("normal", "mu"), ("uniform", "lo"), ("uniform", "hi"))
    for value in _BAD_VALUES
]


def one_shot_flags(y, delta):
    """The delta-record scan as one expression over a full-length running
    maximum: the reference that the piecewise scan must match bit for bit."""
    y = np.asarray(y, dtype=np.float64)
    want = np.empty(y.shape, np.bool_)
    want[..., 0] = True
    want[..., 1:] = y[..., 1:] > np.maximum.accumulate(y, axis=-1)[..., :-1] + delta
    return want


@pytest.fixture(scope="session")
def fixture_series():
    """The shipped synthetic yearly series (69 rows, 1951..2019)."""
    return load_series(FIXTURE_CSV)
