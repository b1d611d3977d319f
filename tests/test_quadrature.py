import math

import numpy as np
import pytest
import scipy.integrate

from driftrecords.errors import QuadratureError
from driftrecords.quadrature import first_passes, integrate


def _check(fn, lo, hi, tol=1e-10):
    value, err = integrate(fn, lo, hi, tol)
    want, _ = scipy.integrate.quad(lambda x: float(fn(np.array([x]))[0]), lo, hi,
                                   limit=400)
    assert err <= tol
    assert value == pytest.approx(want, abs=max(10 * tol, 1e-12))
    return value


def test_polynomial_is_exact():
    value, err = integrate(lambda x: 3 * x**2, 0.0, 2.0, 1e-12)
    assert value == pytest.approx(8.0, abs=1e-12)


def test_gaussian_bump():
    value = _check(lambda x: np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi),
                   -12.0, 12.0)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_sharp_peak():
    # width-1e-3 Lorentzian in the middle of a wide interval
    fn = lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2)
    _check(fn, -5.0, 5.0, tol=1e-8)


def test_oscillatory():
    _check(lambda x: np.sin(40.0 * x) * np.exp(-x), 0.0, 6.0, tol=1e-10)


def test_endpoint_algebraic_singularity():
    value, err = integrate(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, 1e-8)
    assert value == pytest.approx(2.0, abs=1e-4)


def test_geometric_panels_for_wide_positive_ranges():
    # heavy-tailed integrand over five decades
    value, err = integrate(lambda x: x**-2.0, 1.0, 1e6, 1e-10)
    assert value == pytest.approx(1.0 - 1e-6, rel=1e-9)
    assert err <= 1e-10
    # a Dagum(1, 2) density over [0, 2e12]: equal panels would put all of
    # its mass inside the first one, below every node
    hi = 2e12
    value, err = integrate(lambda x: 2.0 * x / (x + 1.0) ** 3, 0.0, hi, 1e-8)
    assert abs(value - (hi / (hi + 1.0)) ** 2) <= err <= 1e-8


def test_empty_interval_is_zero():
    assert integrate(lambda x: x, 3.0, 3.0, 1e-8) == (0.0, 0.0)
    assert integrate(lambda x: x, 5.0, 3.0, 1e-8) == (0.0, 0.0)


def test_nonfinite_limits_rejected():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.exp(-x), 0.0, math.inf, 1e-8)


def test_budget_exhaustion_carries_best_estimate():
    fn = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0))
    with pytest.raises(QuadratureError) as exc_info:
        integrate(fn, 0.0, 1.0, 1e-15, max_intervals=64)
    err = exc_info.value
    # interior inverse-sqrt singularity: truth is 2(sqrt(1/3)+sqrt(2/3))
    truth = 2.0 * (math.sqrt(1.0 / 3.0) + math.sqrt(2.0 / 3.0))
    assert math.isfinite(err.best_estimate)
    assert err.best_estimate == pytest.approx(truth, abs=0.05)
    assert err.error_bound > 1e-15


def test_vector_integrand_matches_one_call_per_component():
    # each component meets the tolerance on the panels its neighbours
    # need, so it agrees with its own scalar call within both bounds
    fns = [
        lambda x: np.exp(-x * x),
        lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2),
        lambda x: np.cos(7.0 * x) ** 2,
    ]
    calls = []

    def stacked(x):
        calls.append(x.shape)
        return np.stack([fn(x) for fn in fns])

    tol = 1e-10
    values, errs = integrate(stacked, -3.0, 3.0, tol, breaks=(0.3,))
    assert values.shape == errs.shape == (3,)
    assert np.all(errs <= tol)
    assert all(len(shape) == 1 for shape in calls)
    for fn, value, err in zip(fns, values, errs):
        want, want_err = integrate(fn, -3.0, 3.0, tol, breaks=(0.3,))
        assert abs(value - want) <= err + want_err

    # one component alone is the scalar integrand, bit for bit
    one = integrate(lambda x: fns[1](x)[None], -3.0, 3.0, tol)
    assert (float(one[0][0]), float(one[1][0])) == integrate(fns[1], -3.0, 3.0, tol)


def test_vector_budget_exhaustion_carries_every_estimate():
    fn = lambda x: np.stack([np.ones_like(x), 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0))])
    with pytest.raises(QuadratureError) as exc_info:
        integrate(fn, 0.0, 1.0, 1e-15, max_intervals=64)
    err = exc_info.value
    assert err.best_estimate.shape == err.error_bound.shape == (2,)
    assert err.best_estimate[0] == pytest.approx(1.0, rel=1e-14)


def test_single_function_call_per_refinement_round():
    calls = []

    def fn(x):
        calls.append(x.shape[0])
        return np.exp(-x * x)

    integrate(fn, -3.0, 3.0, 1e-10)
    # panels are evaluated in batches, never point by point
    assert all(size >= 15 for size in calls)
    assert calls[0] == 16 * 15


def test_first_passes_are_integrates_first_pass():
    # with a tolerance the first pass meets, integrate returns that pass;
    # the windows cover the geometric, the zero-based geometric, the
    # equal-panel and the empty case, all from one integrand call.  The
    # empty window [0, 0] puts every node on the pole at 0.
    calls = []

    def fn(x):
        calls.append(x.shape[0])
        with np.errstate(divide="ignore"):
            return np.exp(-np.sqrt(x)) / x

    lo = [0.0, 2.0, 0.5, 0.0, 1e3]
    hi = [1e6, 1e5, 1.5, 0.0, 1e3 + 512.0]
    with np.errstate(invalid="ignore"):  # 0 * inf on the empty window
        values, gauges = first_passes(fn, lo, hi)
    assert calls == [len(lo) * 16 * 15]
    for a, b, value, gauge in zip(lo, hi, values, gauges):
        assert (value, gauge) == integrate(fn, a, b, math.inf)
        assert type(value) is float and type(gauge) is float


def test_first_pass_is_kept_exactly_when_its_gauge_meets_the_tolerance():
    # integrate keeps its first pass for tol >= the summed gauge and
    # refines below it; classify_finiteness accepts first passes on the
    # same comparison, so this pins the boundary both sides share.
    def fn(x):
        return np.exp(-((x - 3.0) ** 2) / 0.005)

    (value,), (gauge,) = first_passes(fn, [0.0], [4.0])
    assert gauge > 0.0
    assert integrate(fn, 0.0, 4.0, gauge) == (value, gauge)
    refined = integrate(fn, 0.0, 4.0, np.nextafter(gauge, 0.0))
    assert refined[1] < gauge and refined[0] != value
