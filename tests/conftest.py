import math
import os

import pytest

from driftrecords.analysis import load_series

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
FIXTURE_CSV = os.path.join(DATA_DIR, "synthetic_temperatures.csv")

# observation indices that are not integers >= 1
BAD_INDICES = [0, -3, True, 10.0, 2.5, math.nan, math.inf, "5", None]


@pytest.fixture(scope="session")
def fixture_series():
    """The shipped synthetic yearly series (69 rows, 1951..2019)."""
    return load_series(FIXTURE_CSV)
