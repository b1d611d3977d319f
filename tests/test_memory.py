"""Traced memory of the sampling path, as a multiple of its output size.

tracemalloc sees numpy's data buffers, so the traced peak of a call on a
1e6-value input counts its output and every temporary it holds at once.
Each cap is stated in units of one float64 per value (8 MB here), so a
call that holds only its output and a few block-sized scratch arrays
stays just above 1.
"""
import tracemalloc

import numpy as np
import pytest

from driftrecords import (
    Gumbel,
    LdmConfig,
    Normal,
    asymptotic_variance_mc,
    delta_record_flags,
    replication_rng,
    simulate_ldm,
    variance_estimator,
)
from driftrecords._special import norm_quantile

N = 10**6
LDM = LdmConfig(Normal(), 0.1, 0.5)


@pytest.fixture(scope="module")
def inputs():
    u = np.random.default_rng(21).random(N)
    path = simulate_ldm(LDM, N, replication_rng(21, 0))
    return u, path, delta_record_flags(path, 0.5)


def traced_peak(fn):
    """Traced peak of fn(), in float64 values per input value."""
    fn()  # a first call fills any cache, which is not the call's own
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (8 * N)
    finally:
        tracemalloc.stop()


CASES = {
    "norm_quantile": (lambda u, path, fl: norm_quantile(u), 1.3),
    "Normal.quantile": (lambda u, path, fl: Normal(1.0, 2.0).quantile(u), 1.3),
    "Gumbel.quantile": (lambda u, path, fl: Gumbel().quantile(u), 1.1),
    # the path and one piece of drift: the measured peak was 1.07
    "simulate_ldm": (lambda u, path, fl: simulate_ldm(LDM, N, replication_rng(21, 0)), 1.1),
    "delta_record_flags": (lambda u, path, fl: delta_record_flags(path, 0.5), 0.3),
    # a short lag window: the peak does not depend on m, the time does
    "variance_estimator": (lambda u, path, fl: variance_estimator(fl, m=10), 1.1),
    # 200 paths of 2000 burn-in and 3000 window values: 1e6 values in
    # blocks of 26 rows, within 2**17 values (0.13 each).  The window
    # flags cost one byte per window value (0.075 here), held by the
    # blocks and then once more concatenated, and their packed words an
    # eighth of that; the measured peak was 0.21 (0.16 with blocks of
    # 2**16)
    "asymptotic_variance_mc": (lambda u, path, fl: asymptotic_variance_mc(
        LDM, horizon=3000, burn_in=2000, reps=200, workers=1), 0.45),
}


@pytest.mark.parametrize("name", list(CASES))
def test_traced_peak_is_within_its_cap(inputs, name):
    fn, cap = CASES[name]
    peak = traced_peak(lambda: fn(*inputs))
    # the output alone is one value per value (0.125 for the one-byte
    # flags of a record scan), so every cap leaves room for it
    assert peak <= cap, f"{name}: traced peak {peak:.2f} x the output size"
