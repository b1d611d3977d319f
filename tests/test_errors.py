"""Bad input to any public entry point raises DriftRecordsError, a
ValueError, that names the argument.

The index n of the quadrature functions, the seeds of the engine and of
the fixture, and the tolerances have their own tests (BAD_INDICES in
conftest.py, BAD_SEEDS in test_simulate.py, the seed test of
test_analysis.py, test_tolerance_must_be_positive); the table here covers
every other integer argument.
"""
import math

import numpy as np
import pytest

from driftrecords import (
    DriftRecordsError,
    Gumbel,
    LdmConfig,
    SimulationConfig,
    analyze,
    asymptotic_variance_mc,
    bootstrap_histogram,
    dagum_p_n0,
    dagum_p_n0_asymptotic,
    dagum_p_n_delta_eq_c,
    dagum_p_n_delta_eq_c_asymptotic,
    gaussian_interval,
    gumbel_p_n_delta,
    mc_record_rate,
    ols_fit,
    pareto_l_n,
    pareto_p_n_delta,
    replication_rng,
    simulate_ldm,
    synthetic_temperature_series,
    variance_estimator,
)
from driftrecords.simulate import replicate

LDM = LdmConfig(Gumbel(), c=1.0, delta=0.5)
SERIES = synthetic_temperature_series()
FIT = ols_fit(SERIES)
FLAGS = [True, False] * 5
MC = dict(horizon=20, burn_in=10, lag_max=5, reps=2, seed=0, workers=1)
BOOT = dict(reps=1000, seed=1, workers=1)


def _keyword(fn, name, **fixed):
    return lambda v: fn(**{**fixed, name: v})


# (id, call of the bad value, argument name, least valid value)
INTEGER_ARGUMENTS = [
    ("gumbel_p_n_delta", lambda v: gumbel_p_n_delta(1.0, 0.0, v), "n", 1),
    ("dagum_p_n0", lambda v: dagum_p_n0(2.0, v), "n", 2),
    ("dagum_p_n0_asymptotic", lambda v: dagum_p_n0_asymptotic(2.0, v), "n", 2),
    ("dagum_p_n_delta_eq_c", lambda v: dagum_p_n_delta_eq_c(2.0, v), "n", 3),
    ("dagum_p_n_delta_eq_c_asymptotic",
     lambda v: dagum_p_n_delta_eq_c_asymptotic(2.0, v), "n", 3),
    ("pareto_p_n_delta", lambda v: pareto_p_n_delta(0.5, v), "n", 2),
    ("pareto_l_n", lambda v: pareto_l_n(0.5, v), "n", 3),
    ("simulate_ldm", lambda v: simulate_ldm(LDM, v, replication_rng(0, 0)), "n", 1),
    ("replication_rng.seed", lambda v: replication_rng(v, 0), "seed", 0),
    ("replication_rng.rep", lambda v: replication_rng(0, v), "rep", 0),
    ("replicate.reps", lambda v: replicate(0, v, 5, np.sum), "reps", 1),
    ("replicate.n", lambda v: replicate(0, 4, v, np.sum), "n", 1),
    ("replicate.workers", lambda v: replicate(0, 4, 5, np.sum, v), "workers", 1),
    ("SimulationConfig.n",
     _keyword(SimulationConfig, "n", ldm=LDM, replications=2, seed=0), "n", 1),
    ("SimulationConfig.replications",
     _keyword(SimulationConfig, "replications", ldm=LDM, n=10, seed=0),
     "replications", 1),
    ("mc_record_rate",
     lambda v: mc_record_rate(SimulationConfig(LDM, 10, 2, 0), workers=v), "workers", 1),
    ("variance_estimator", lambda v: variance_estimator(FLAGS, v), "m", 0),
    *[
        (f"asymptotic_variance_mc.{name}",
         _keyword(asymptotic_variance_mc, name, ldm=LDM, **MC), name, least)
        for name, least in (("horizon", MC["lag_max"] + 1), ("burn_in", 0),
                            ("lag_max", 0), ("reps", 1), ("seed", 0), ("workers", 1))
    ],
    ("gaussian_interval", lambda v: gaussian_interval(v, 0.5, 0.2, 0.9), "n", 1),
    ("analyze", lambda v: analyze(SERIES, 0.0, m=v), "m", 0),
    *[
        (f"bootstrap_histogram.{name}",
         _keyword(bootstrap_histogram, name, fit=FIT, ts=SERIES, delta=0.0, **BOOT),
         name, least)
        for name, least in (("reps", 1000), ("seed", 0), ("workers", 1))
    ],
]


def _bad_values(least):
    return [True, 2.5, float(least), math.nan, math.inf, least - 1]


@pytest.mark.parametrize("call, name, bad", [
    pytest.param(call, name, bad, id=f"{label}={bad!r}")
    for label, call, name, least in INTEGER_ARGUMENTS
    for bad in _bad_values(least)
])
def test_integer_argument_rejects_bad_values(call, name, bad):
    with pytest.raises(DriftRecordsError, match=f"^{name} must be "):
        call(bad)


def test_the_package_error_is_a_value_error():
    assert issubclass(DriftRecordsError, ValueError)

