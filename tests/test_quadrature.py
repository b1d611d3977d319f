import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from driftrecords import quadrature
from driftrecords.errors import QuadratureError
from driftrecords.quadrature import integrate


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


def test_kronrod_and_gauss_rules_are_exact_to_the_last_bits():
    # the doubles of QUADPACK's 33-digit constants: K15 integrates 1 to
    # exactly 2 and x^k, k <= 22, to within a few ulp, as G7 does for
    # k <= 13
    assert math.fsum(quadrature._WK) == 2.0
    for weights, degree in ((quadrature._WK, 22), (quadrature._WGFULL, 13)):
        for k in range(degree + 1):
            got = math.fsum(weights * quadrature._NODES**k)
            if k % 2:
                assert abs(got) <= 1e-16
            else:
                assert got == pytest.approx(2.0 / (k + 1), rel=1e-15)


def test_bound_covers_the_rounding_of_exactly_integrated_polynomials():
    # both rules are exact for degree <= 13, so |K15 - G7| is rounding
    # noise and can fall below the rounding error of the value itself;
    # the floor of 50 eps int |f| per panel keeps the bound above it
    rng = np.random.default_rng(5)
    for _ in range(200):
        coef = rng.normal(size=int(rng.integers(2, 15)))
        lo, hi = sorted(rng.uniform(-3.0, 3.0, 2))

        def prim(t):
            return sum(Fraction(float(a)) * Fraction(t) ** (k + 1) / (k + 1)
                       for k, a in enumerate(coef))

        def fn(x):
            return np.polynomial.polynomial.polyval(x, coef)

        scale = float(np.abs(fn(np.linspace(lo, hi, 200))).mean()) * (hi - lo)
        value, err = integrate(fn, lo, hi, 1e-12 * scale)
        assert abs(Fraction(value) - (prim(hi) - prim(lo))) <= Fraction(err)


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


@pytest.mark.parametrize("lo, hi", [
    (1.0, 1e6), (1e-3, 2.0), (0.5, 51.0), (1.0, 1e300), (0.0, 2e12), (0.0, 101.0),
])
def test_geometric_first_grid_has_fixed_panels_per_decade(lo, hi):
    # both geometric branches: adjacent edges differ by at most a factor
    # 10**(1/k), k = _PANELS_PER_DECADE, with 16 panels at least; a window
    # from 0 keeps [0, hi 1e-15] as its first panel
    edges = quadrature._initial_edges(lo, hi)
    assert edges[0] == lo and edges[-1] == pytest.approx(hi, rel=1e-15)
    assert np.all(np.diff(edges) > 0.0)
    geometric = edges[1:] if lo == 0.0 else edges
    if lo == 0.0:
        assert geometric[0] == pytest.approx(hi * 1e-15, rel=1e-15)
    ratios = geometric[1:] / geometric[:-1]
    assert ratios.max() <= 10.0 ** (1.0 / quadrature._PANELS_PER_DECADE) * (1.0 + 1e-12)
    assert geometric.size - 1 >= quadrature._INITIAL_PANELS
    assert ratios.max() == pytest.approx(ratios.min(), rel=1e-9)


@pytest.mark.parametrize("lo, hi", [
    (0.0, 1.0), (1.0, 100.0), (0.0, 100.0), (-3.0, 1e6), (-1e6, -1.0),
])
def test_linear_first_grid_keeps_sixteen_equal_panels(lo, hi):
    # a window that is not positive, or spans at most a factor 100 (or
    # from 0 to at most 100), is split into 16 equal panels
    assert np.array_equal(quadrature._initial_edges(lo, hi), np.linspace(lo, hi, 17))
    calls = []
    integrate(lambda x: calls.append(x.size) or np.ones_like(x), lo, hi, 1.0)
    assert calls == [16 * 15]


def test_empty_interval_is_zero():
    assert integrate(lambda x: x, 3.0, 3.0, 1e-8) == (0.0, 0.0)
    assert integrate(lambda x: x, 5.0, 3.0, 1e-8) == (0.0, 0.0)


def test_nonfinite_limits_rejected():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.exp(-x), 0.0, math.inf, 1e-8)


def test_budget_exhaustion_carries_best_estimate(monkeypatch):
    # tol = 1e-10 is far above the rounding floor (about 3e-14), so only
    # the panel budget stops the bisection of the singular panel
    monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 64)
    fn = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0))
    with pytest.raises(QuadratureError, match="more than 64 panels") as exc_info:
        integrate(fn, 0.0, 1.0, 1e-10)
    err = exc_info.value
    # interior inverse-sqrt singularity: truth is 2(sqrt(1/3)+sqrt(2/3))
    truth = 2.0 * (math.sqrt(1.0 / 3.0) + math.sqrt(2.0 / 3.0))
    assert math.isfinite(err.best_estimate)
    assert err.best_estimate == pytest.approx(truth, abs=0.05)
    assert err.error_bound > 1e-10


def test_tolerance_under_the_rounding_floor_fails_on_the_first_pass():
    # the floor 50 eps int |f| is about 1.9e-14 for exp on [0, 1], and
    # no bisection lowers it, so the call raises after one integrand call
    calls = []

    def fn(x):
        calls.append(x.size)
        return np.exp(x)

    with pytest.raises(QuadratureError, match="under the rounding floor 1.9") as exc_info:
        integrate(fn, 0.0, 1.0, 1e-14)
    assert calls == [16 * 15]
    err = exc_info.value
    assert err.best_estimate == pytest.approx(math.e - 1.0, rel=1e-15)
    assert 0.0 < err.error_bound < 1e-13
    # one component under its floor is enough
    with pytest.raises(QuadratureError, match="rounding floor") as exc_info:
        integrate(lambda x: np.stack([1e-6 * np.exp(x), np.exp(x)]), 0.0, 1.0, 1e-14)
    assert exc_info.value.best_estimate.shape == (2,)
    # a tolerance just above the floor is met
    value, err = integrate(fn, 0.0, 1.0, 2e-14)
    assert abs(value - (math.e - 1.0)) <= err <= 2e-14


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


def test_vector_budget_exhaustion_carries_every_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 64)
    fn = lambda x: np.stack([np.ones_like(x), 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0))])
    with pytest.raises(QuadratureError, match="more than 64 panels") as exc_info:
        integrate(fn, 0.0, 1.0, 1e-10)
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


@pytest.mark.bit_identity
def test_first_pass_is_kept_exactly_when_its_gauge_meets_the_tolerance():
    # integrate keeps its first pass for tol >= the summed gauge and
    # refines below it; an infinite tol returns the first pass.
    def fn(x):
        return np.exp(-((x - 3.0) ** 2) / 0.005)

    value, gauge = integrate(fn, 0.0, 4.0, math.inf)
    assert gauge > 0.0
    assert integrate(fn, 0.0, 4.0, gauge) == (value, gauge)
    refined = integrate(fn, 0.0, 4.0, np.nextafter(gauge, 0.0))
    assert refined[1] < gauge and refined[0] != value
