import math
import os

import numpy as np
import pytest

from driftrecords.analysis import load_series

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
FIXTURE_CSV = os.path.join(DATA_DIR, "synthetic_temperatures.csv")

# observation indices that are not integers >= 1
BAD_INDICES = [0, -3, True, 10.0, 2.5, math.nan, math.inf, "5", None]


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
