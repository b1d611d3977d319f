import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from driftrecords import (
    ALMOST_SURELY_FINITE,
    INFINITE,
    Exponential,
    Gumbel,
    LdmConfig,
    Normal,
    ProbResult,
    classify_finiteness,
    classify_positivity,
    dagum_p_n0,
    gumbel_p_delta,
    gumbel_p_n_delta,
    p_delta,
    p_n_delta,
    pareto_p_n_delta,
    parse_spec,
)
from driftrecords import distributions, probability, quadrature
from driftrecords.correlation import dependence_index_result, joint_prob_consecutive
from driftrecords.distributions import Dagum, ParetoUnit, Uniform
from driftrecords.errors import DriftRecordsError, QuadratureError
from driftrecords.probability import (
    DEFAULT_TOL, Weight, _below_top, _density_weight, _log_product, _record_integral,
    _tail_threshold,
)

from conftest import BAD_INDICES


def ldm(spec, c, delta):
    return LdmConfig(parse_spec(spec), c=c, delta=delta)


def _member(spec, *xs):
    """spec's standard member and xs in its units: the record integral's
    Euler-Maclaurin tail and log-product only ever see members."""
    member, scale = parse_spec(spec).standard()
    return (member, *(x / scale for x in xs))


class TestFiniteSampleProbability:
    def test_matches_gumbel_closed_form(self):
        for c, delta, n in [
            (1.0, 0.0, 5),
            (math.log(2.0), 0.0, 10),
            (-0.5, 1.0, 8),
            (0.0, 0.5, 20),
            (0.25, -1.0, 50),
        ]:
            res = p_n_delta(ldm("gumbel", c, delta), n, tol=1e-9)
            want = gumbel_p_n_delta(c, delta, n)
            assert res.value == pytest.approx(want, abs=1e-8)
            assert abs(res.value - want) <= res.abs_error_bound + 1e-12

    def test_matches_pareto_closed_form(self):
        for delta, n in [(0.0, 2), (0.0, 7), (1.0, 2), (-1.0, 4), (2.5, 6),
                         (-5.0, 10)]:
            res = p_n_delta(ldm("pareto1", 1.0, delta), n, tol=1e-9)
            assert res.value == pytest.approx(
                pareto_p_n_delta(delta, n), abs=1e-8
            )

    def test_n1_is_certain(self):
        res = p_n_delta(ldm("normal", -2.0, 7.0), 1)
        assert (res.value, res.abs_error_bound, res.truncation_n) == (1.0, 0.0, 0)

    @pytest.mark.parametrize("n", BAD_INDICES, ids=repr)
    def test_rejects_an_index_that_is_not_an_integer_from_one(self, n):
        # n = nan once gave 0.999999999998 here, and n = inf the limit p
        with pytest.raises(DriftRecordsError, match="n must be an integer >= 1"):
            p_n_delta(ldm("normal", 0.1, 0.5), n)

    def test_numpy_integer_index_is_an_index(self):
        cfg = ldm("normal", 0.1, 0.5)
        assert p_n_delta(cfg, np.int64(7)) == p_n_delta(cfg, 7)

    def test_monotone_in_n(self):
        cfg = ldm("normal", 0.3, 0.1)
        vals = [p_n_delta(cfg, n, tol=1e-10).value for n in (2, 3, 5, 9, 17)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 2e-10

    def test_monotone_in_delta(self):
        vals = [
            p_n_delta(ldm("exp:rate=0.5", 0.2, d), 12, tol=1e-10).value
            for d in (-1.0, -0.25, 0.0, 0.5, 2.0)
        ]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 2e-10

    def test_monotone_in_trend(self):
        vals = [
            p_n_delta(ldm("gumbel", c, 0.5), 12, tol=1e-10).value
            for c in (-0.5, 0.0, 0.3, 1.0)
        ]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 2e-10

    def test_scaling_identity(self):
        # scaling the noise by b > 0 rescales trend and threshold together
        for c, delta, n in [(0.4, 0.3, 6), (1.0, -0.5, 9)]:
            base = p_n_delta(ldm("uniform:lo=0,hi=1", c, delta), n, tol=1e-10)
            scaled = p_n_delta(
                ldm("uniform:lo=0,hi=2", 2.0 * c, 2.0 * delta), n, tol=1e-10
            )
            assert scaled.value == pytest.approx(base.value, abs=1e-8)

    def test_shift_identity(self):
        # adding a constant to the noise leaves record flags unchanged
        for c, delta, n in [(0.4, 0.3, 6), (-0.2, -0.4, 5)]:
            base = p_n_delta(ldm("normal:mu=0,sigma=1", c, delta), n, tol=1e-10)
            shifted = p_n_delta(ldm("normal:mu=5,sigma=1", c, delta), n, tol=1e-10)
            assert shifted.value == pytest.approx(base.value, abs=1e-8)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_tolerance_must_be_positive(tol):
    # tol = inf used to pass, and classify_finiteness then failed with
    # "math domain error"
    cfg = ldm("gumbel", 1.0, 0.5)
    for call in (lambda: p_n_delta(cfg, 5, tol=tol), lambda: p_n_delta(cfg, 1, tol=tol),
                 lambda: p_delta(cfg, tol=tol),
                 lambda: classify_finiteness(ldm("normal", 0.0, 0.5), tol=tol)):
        with pytest.raises(DriftRecordsError, match="tol must be positive"):
            call()


def _count_integrand_calls(monkeypatch, module):
    sizes = []
    real = module.integrate

    def counted(fn, *args, **kwargs):
        return real(lambda x: sizes.append(x.size) or fn(x), *args, **kwargs)

    monkeypatch.setattr(module, "integrate", counted)
    return sizes


def test_tolerance_under_the_rounding_floor_fails_at_once(monkeypatch):
    # p_5 = 0.636 here, whose rounding floor 50 eps p is about 7e-15: the
    # first pass shows it, and the call raises before any bisection
    sizes = _count_integrand_calls(monkeypatch, probability)
    with pytest.raises(QuadratureError, match="rounding floor") as exc_info:
        p_n_delta(LdmConfig(Gumbel(), 1.0, 0.0), 5, tol=3e-15)
    assert len(sizes) == 1
    err = exc_info.value
    assert err.best_estimate.shape == err.error_bound.shape == (1,)
    assert err.best_estimate[0] == pytest.approx(gumbel_p_n_delta(1.0, 0.0, 5), abs=1e-7)


def test_quadrature_error_names_the_callers_tol(monkeypatch):
    # the quadrature runs at 0.8 tol; the message must still name the tol
    # given, on the floor path and on the panel-budget path alike
    cfg = LdmConfig(Gumbel(), 1.0, 0.0)
    with pytest.raises(QuadratureError, match="tol 3e-15 cannot be met.*rounding floor"):
        p_n_delta(cfg, 5, tol=3e-15)
    monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 20)
    with pytest.raises(QuadratureError, match="tol 3e-14 cannot be met.*more than 20") as exc_info:
        p_n_delta(cfg, 5, tol=3e-14)
    err = exc_info.value
    assert err.best_estimate[0] == pytest.approx(gumbel_p_n_delta(1.0, 0.0, 5), abs=1e-7)
    assert err.error_bound[0] > 0.8 * 3e-14


def test_zero_trend_quadrature_error_names_the_callers_tol():
    # the normal survival-ratio integral runs its quadrature at the
    # absolute 0.5 tol I, with I = 0.6346 here; the message names tol
    with pytest.raises(
        QuadratureError, match="^tol 1e-15 cannot be met.*rounding floor"
    ) as exc_info:
        classify_finiteness(ldm("normal", 0.0, 1.0), tol=1e-15)
    err = exc_info.value
    want = classify_finiteness(ldm("normal", 0.0, 1.0), tol=1e-10).integral_value
    assert err.best_estimate == pytest.approx(want, rel=1e-9)
    assert 0.0 < err.error_bound < 1e-6


class TestLimitProbability:
    def test_matches_gumbel_closed_form(self):
        for c, delta in [(math.log(2.0), 0.0), (1.0, -0.5), (0.3, 1.5)]:
            res = p_delta(ldm("gumbel", c, delta), tol=1e-8)
            assert res.value == pytest.approx(gumbel_p_delta(c, delta), abs=1e-7)
            assert res.truncation_n >= 1

    def test_dominated_by_finite_sample_value(self):
        for spec, c, delta in [
            ("gumbel", 0.7, 0.2),
            ("normal", 0.5, -0.3),
            ("exp", 1.2, 1.0),
        ]:
            lim = p_delta(ldm(spec, c, delta), tol=1e-9)
            for n in (2, 5, 20, 200):
                fin = p_n_delta(ldm(spec, c, delta), n, tol=1e-9)
                assert lim.value <= fin.value + 1e-7

    def test_finite_sample_converges_to_limit(self):
        cfg = ldm("normal", 0.8, 0.0)
        lim = p_delta(cfg, tol=1e-9)
        gaps = [
            abs(p_n_delta(cfg, n, tol=1e-9).value - lim.value)
            for n in (10, 40, 160)
        ]
        assert gaps[-1] < 1e-6
        assert gaps[0] > gaps[-1]

    def test_zero_when_positivity_fails(self):
        # infinite tail mean kills the limit no matter the trend
        res = p_delta(ldm("pareto1", 2.0, 0.0))
        assert res.value == 0.0
        # nonpositive trend with unbounded support does the same
        assert p_delta(ldm("gumbel", 0.0, -0.5)).value == 0.0
        assert p_delta(ldm("normal", -0.3, 0.0)).value == 0.0

    def test_zero_trend_negative_threshold_bounded_support(self):
        # with no trend the limit is the chance of landing above the
        # supremum minus |delta|, here 1 - F(0.5) = 1/2; a small positive
        # trend approaches it from above, a negative trend gives zero
        res = p_delta(ldm("uniform", 0.0, -0.5))
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert p_delta(ldm("uniform", 1e-3, -0.5)).value == pytest.approx(
            0.5, abs=0.05
        )
        assert p_delta(ldm("uniform", -1e-3, -0.5)).value == 0.0

    def test_zero_trend_bound_covers_rounding(self):
        # 1 - F(hi + delta) is min(-delta / (hi - lo), 1) exactly; in
        # floats it was 1/3 + 3.7e-17 for Uniform(0, 3) at delta = -1, with
        # a bound of 0.  Offsets |lo| up to 1e8 times the span make the
        # rounding of hi + delta the largest part of the error.
        rng = np.random.default_rng(20261)
        missed = 0
        for _ in range(2000):
            span = 10.0 ** rng.uniform(-6.0, 6.0)
            lo = float(rng.choice([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 8.0))
            hi = lo + span
            delta = -span * float(rng.uniform(1e-9, 1.2))
            res = p_delta(LdmConfig(Uniform(lo, hi), 0.0, delta))
            exact = min(Fraction(-delta) / (Fraction(hi) - Fraction(lo)), Fraction(1))
            err = abs(Fraction(res.value) - exact)
            assert err <= Fraction(res.abs_error_bound), (lo, hi, delta)
            missed += err > 0
        assert missed > 1000  # most values are not exact, so the bound matters

    def test_positive_trend_threshold_at_span_boundary(self):
        # uniform support span is 1, so delta < 1 + c keeps the limit
        # positive and delta >= 1 + c forces it to zero
        assert p_delta(ldm("uniform", 0.5, 1.45)).value > 0.0
        assert p_delta(ldm("uniform", 0.5, 1.5)).value == 0.0

    def test_huge_trend(self):
        # c^3 and c^5 overflow as Python floats past c = 1e61; every
        # factor after the first is then exactly 1
        for c in (1e62, 1e103, 1e300):
            for spec in ("gumbel", "normal", "exp"):
                cfg = ldm(spec, c, 0.5)
                for res in (p_delta(cfg), p_n_delta(cfg, 1000)):
                    assert res.value == pytest.approx(1.0, abs=1e-11)
                    assert res.abs_error_bound < 1e-11

    def test_result_invariants(self):
        res = p_delta(ldm("gumbel", 0.5, 0.3), tol=1e-8)
        assert 0.0 <= res.value <= 1.0
        assert res.abs_error_bound <= 1e-8
        assert res.truncation_n >= 1


class TestPositivity:
    CASES = [
        ("gumbel", 1.0, 10.0, True),
        ("gumbel", 1.0, -3.0, True),
        ("gumbel", 0.0, -0.5, False),
        ("uniform", 0.0, -0.5, True),
        ("uniform", 0.0, 0.0, False),
        ("uniform", 0.5, 1.45, True),
        ("uniform", 0.5, 1.5, False),
        ("normal", -0.1, 0.0, False),
        ("normal", 0.1, 5.0, True),
        ("pareto1", 1.0, 0.0, False),
        ("dagum:b=1,q=2", 3.0, 0.0, False),
        ("exp", 0.2, -1.0, True),
        ("exp", 0.0, 1.0, False),
    ]

    @pytest.mark.parametrize("spec,c,delta,want", CASES)
    def test_matrix(self, spec, c, delta, want):
        assert classify_positivity(ldm(spec, c, delta)) is want

    def test_consistent_with_limit_value(self):
        for spec, c, delta, want in self.CASES:
            value = p_delta(ldm(spec, c, delta), tol=1e-7).value
            if want:
                assert value > 0.0
            else:
                assert value == 0.0


class TestFiniteness:
    def test_negative_trend_finite_tail_mean(self):
        v = classify_finiteness(ldm("normal", -0.05, 0.0))
        assert v.verdict == ALMOST_SURELY_FINITE
        assert v.reason == "negative_trend_finite_tail_mean"

    def test_infinite_tail_mean_dominates(self):
        v = classify_finiteness(ldm("pareto1", -1.0, 0.0))
        assert v.verdict == INFINITE
        assert v.reason == "tail_mean_infinite"
        v = classify_finiteness(ldm("dagum:b=2,q=0.7", -3.0, 5.0))
        assert v.verdict == INFINITE

    def test_positive_trend_threshold_covering_span(self):
        v = classify_finiteness(ldm("uniform", 1.0, 2.5))
        assert v.verdict == ALMOST_SURELY_FINITE
        assert v.reason == "threshold_covers_support_span"

    def test_positive_trend_recurrent(self):
        v = classify_finiteness(ldm("uniform", 1.0, 1.5))
        assert v.verdict == INFINITE
        assert v.reason == "positive_trend_records_recur"
        assert classify_finiteness(ldm("gumbel", 0.5, 100.0)).verdict == INFINITE

    def test_zero_trend_nonpositive_threshold(self):
        v = classify_finiteness(ldm("normal", 0.0, 0.0))
        assert v.verdict == INFINITE
        assert v.reason == "zero_trend_nonpositive_threshold"

    def test_zero_trend_survival_integral_converges(self):
        v = classify_finiteness(ldm("normal", 0.0, 0.5))
        assert v.verdict == ALMOST_SURELY_FINITE
        assert v.reason == "zero_trend_survival_integral_converges"
        assert v.integral_value is not None and v.integral_value > 0.0

    def test_zero_trend_compact_support_converges(self):
        v = classify_finiteness(ldm("uniform", 0.0, 0.25))
        assert v.verdict == ALMOST_SURELY_FINITE
        assert v.integral_value is not None

    def test_zero_trend_survival_integral_diverges(self):
        for spec in ("gumbel", "exp", "exp:rate=3"):
            v = classify_finiteness(ldm(spec, 0.0, 1.0))
            assert v.verdict == INFINITE
            assert v.reason == "zero_trend_survival_integral_diverges"

    def test_shifted_law_keeps_its_verdict(self):
        # Shifting the noise leaves the record process unchanged, so the
        # verdict must not change, though on [0, 1] this integrand
        # underflows to 0.
        @dataclass(frozen=True)
        class ShiftedGumbel(Gumbel):
            shift: float = 50.0

            def cdf(self, x):
                return super().cdf(np.asarray(x) - self.shift)

            def log_sf(self, x):
                return super().log_sf(np.asarray(x) - self.shift)

            def pdf(self, x):
                return super().pdf(np.asarray(x) - self.shift)

            def quantile(self, u):
                return super().quantile(u) + self.shift

        v = classify_finiteness(LdmConfig(ShiftedGumbel(), c=0.0, delta=0.5))
        assert v.verdict == INFINITE
        assert v.reason == "zero_trend_survival_integral_diverges"
        # the integral runs over x >= 0, which holds almost all of the
        # shifted normal's mass and half of the unshifted one's
        base = classify_finiteness(ldm("normal", 0.0, 0.5))
        shifted = classify_finiteness(ldm("normal:mu=50", 0.0, 0.5))
        assert shifted.verdict == ALMOST_SURELY_FINITE
        assert shifted.integral_value > base.integral_value

    def test_convergent_integral_value_matches_quadrature(self):
        import scipy.integrate
        import scipy.special
        import scipy.stats

        delta = 0.5

        def integrand(x):
            # log-space evaluation keeps sf(x)^2 from underflowing
            log_val = (
                scipy.special.log_ndtr(-(x + delta))
                - 2.0 * scipy.special.log_ndtr(-x)
                + scipy.stats.norm.logpdf(x)
            )
            return np.exp(log_val)

        want, _ = scipy.integrate.quad(integrand, 0.0, 200.0, limit=400)
        v = classify_finiteness(ldm("normal", 0.0, delta))
        assert v.integral_value == pytest.approx(want, rel=1e-4)


def _survival_ratio_reference(mu, sigma, delta):
    """40-digit mpmath value of the normal survival-ratio integral, in
    z = (x - mu) / sigma.  The integrand decays like exp(-z delta / sigma),
    so the breakpoints are multiples of sigma / delta: with none, mpmath's
    quad is off by 6e-7 at delta = 20."""
    with mp.workdps(40):
        eps, z0 = mp.mpf(delta) / sigma, -mp.mpf(mu) / sigma

        def q(z):
            return mp.erfc(z / mp.sqrt(2)) / 2

        def g(z):
            return q(z + eps) * mp.npdf(z) / q(z) ** 2

        return float(mp.quad(g, [z0 + k / eps for k in range(80)] + [mp.inf]))


class TestZeroTrendFiniteness:
    """At c = 0 and delta > 0 the verdict is the law's tail fact; only the
    value of a Finite verdict is integrated."""

    LAWS = [Gumbel(), ParetoUnit(), Dagum(b=1.0, q=2.0), Normal(), Uniform(),
            Exponential(), Normal(mu=1.0, sigma=3.0), Normal(sigma=100.0),
            Exponential(rate=3.0)]
    FINITE = (Normal, Uniform)

    @pytest.mark.parametrize("dist", LAWS, ids=repr)
    @pytest.mark.parametrize(
        "delta", [1e-6, 1e-5, 1e-4, 1e-3, 0.1, 0.5, 2.0, 5.0, 20.0, 30.0, 40.0, 50.0]
    )
    def test_verdict_table(self, dist, delta):
        v = classify_finiteness(LdmConfig(dist, c=0.0, delta=delta))
        if isinstance(dist, self.FINITE):
            assert v.verdict == ALMOST_SURELY_FINITE
            assert v.reason == probability.REASON_ZERO_TREND_CONVERGES
            assert 0.0 <= v.integral_value < math.inf
        else:
            assert v.verdict == INFINITE
            assert v.integral_value is None
        if isinstance(dist, Normal) and delta <= 1e-3 * dist.sigma:
            # the integral is sigma^2 / delta^2 to first order
            assert v.integral_value == pytest.approx((dist.sigma / delta) ** 2, rel=1e-3)

    @pytest.mark.parametrize("mu,sigma,delta,want", [
        (0.0, 1.0, 0.1, 100.6773032755398),
        (0.0, 1.0, 0.5, 3.723320689167219),
        (0.0, 1.0, 2.0, 0.03286910182881465),
        (0.0, 1.0, 20.0, 2.376262925801565e-90),
        (1.0, 3.0, 0.1, 901.8580290412323),
        (50.0, 1.0, 0.5, 4.244340491403476),
    ])
    def test_normal_value_matches_mpmath(self, mu, sigma, delta, want):
        # values of _survival_ratio_reference; at delta = 20 from breakpoints
        # four times as dense, which moved it by 6e-12
        v = classify_finiteness(LdmConfig(Normal(mu, sigma), c=0.0, delta=delta))
        assert v.integral_value == pytest.approx(want, rel=1e-7)

    def test_reference_matches_denser_breakpoints(self):
        assert _survival_ratio_reference(0.0, 1.0, 20.0) == pytest.approx(
            2.376262925801565e-90, rel=1e-10
        )

    def test_tol_must_be_positive(self):
        with pytest.raises(DriftRecordsError, match="tol must be positive"):
            classify_finiteness(ldm("normal", 0.0, 0.5), tol=0.0)

    @pytest.mark.parametrize("delta", [40.0, 50.0])
    def test_value_below_the_smallest_double_is_zero(self, delta):
        # the integral is 1.5e-351 at delta = 40
        v = classify_finiteness(ldm("normal", 0.0, delta))
        assert v.verdict == ALMOST_SURELY_FINITE
        assert v.integral_value == 0.0

    @pytest.mark.parametrize("dist, delta", [(Normal(), 1e300), (Normal(0.0, 1e-300), 1.0)],
                             ids=repr)
    def test_huge_threshold_in_standard_units_gets_a_verdict(self, dist, delta):
        # 25 (1 + delta/sigma) in the window's end overflowed, so the
        # quadrature raised "integration limits must be finite"
        v = classify_finiteness(LdmConfig(dist, c=0.0, delta=delta))
        assert v.verdict == ALMOST_SURELY_FINITE
        assert 0.0 <= v.integral_value < math.inf

    def test_tol_under_the_smallest_normal_double_names_itself(self):
        # 25 (1 + delta/sigma) / tol overflowed here too, so the error
        # spoke of infinite limits instead of the tol
        with pytest.raises(QuadratureError, match="^tol 1e-307 cannot be met"):
            Normal().zero_trend_integral(1.0, 1e-307)


def _exponential_reference(c, delta, n=None):
    """30-digit p (n None) or p_n for unit-rate exponential noise.

    With z = e^-(x - delta + c) and q = e^-c the product of the n - 1
    factors 1 - z q^(i-1) is exp(-sum_k z^k (1 - q^(k(n-1))) / (k (1 - q^k))).
    """
    with mp.workdps(30):
        c, delta = mp.mpf(c), mp.mpf(delta)
        q = mp.exp(-c)

        def f(x):
            z = mp.exp(-(x - delta + c))
            if z >= 1 or z / (1 - q) > 150:  # the product is below e^-150
                return mp.mpf(0)
            s, k, zk = mp.mpf(0), 1, z
            while True:
                qk = q**k
                term = zk / (k * (1 - qk))
                if n is not None:
                    term *= 1 - qk ** (n - 1)
                s += term
                if term < mp.mpf(10) ** -40 * s:
                    break
                k, zk = k + 1, zk * z
            return mp.exp(-s - x)

        x0 = max(mp.mpf(0), delta - c)
        peak = delta - c - mp.log(1 - q)
        pts = [x0] + [p for p in (peak - 3, peak, peak + 3, peak + 30) if p > x0]
        return float(mp.quad(f, pts + [mp.inf]))


# 30-digit mpmath values of p (n None) and p_n for standard normal noise,
# frozen as oracles: the direct sum of log Phi over every factor up to
# argument 13, integrated by mp.quad over [-9, 9].
NORMAL_REFERENCE = {
    (0.5, 0.5, None): 0.3493671596951476402622476,
    (0.1, 0.5, 1000): 0.07946402959602454615427277,
    (0.01, 0.0, None): 0.02489162323582552527005969,
    (0.01, 0.3, 500): 0.01243529952793539952955488,
}

# The same for unit-rate exponential noise, from _exponential_reference.
EXPONENTIAL_REFERENCE = {
    (1e-5, 0.3, None): 7.408182206817179e-06,
    (1e-5, 0.3, 10**6 + 1): 7.408518549675533e-06,
}


# The standard laws of the first-order checks: pdf, log cdf and an
# integration window, in scipy and the math module only.
FIRST_ORDER_LAWS = {
    "normal": (lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
               scipy.special.log_ndtr, -9.0, 9.0),
    "gumbel": (lambda x: math.exp(-x - math.exp(-x)), lambda u: -math.exp(-u), -4.0, 40.0),
    "exp": (lambda x: math.exp(-x),
            lambda u: math.log(-math.expm1(-u)) if u > 0.0 else -math.inf, 0.0, 40.0),
    "uniform": (lambda x: 1.0, lambda u: math.log(u) if u > 0.0 else -math.inf, 0.0, 1.0),
}


@functools.lru_cache
def _first_order_reference(spec, delta, m):
    """p_{m+1} at c = 0 and its c-derivative, p'(0) = integral of
    f(x) F(x - delta)^m m (m + 1)/2 g'(x - delta), g' = f/F, both by
    QUADPACK over 59 panels, independently of the package."""
    pdf, log_cdf, lo, hi = FIRST_ORDER_LAWS[spec]
    lo = max(lo, delta) if spec in ("exp", "uniform") else lo

    def p0(x):
        return pdf(x) * math.exp(m * log_cdf(x - delta))

    def slope(x):
        g = log_cdf(x - delta)
        if g < -700.0:
            return 0.0
        return pdf(x) * math.exp((m - 1) * g) * m * (m + 1) / 2.0 * pdf(x - delta)

    kw = dict(epsabs=1e-17, epsrel=1e-13, limit=500, points=np.linspace(lo, hi, 60)[1:-1])
    return scipy.integrate.quad(p0, lo, hi, **kw)[0], scipy.integrate.quad(slope, lo, hi, **kw)[0]


class TestBoundAudit:
    """|value - reference| <= abs_error_bound over grids of inputs."""

    @staticmethod
    def _assert_within(res, want, what):
        assert abs(res.value - want) <= res.abs_error_bound, (
            what, res.value, want, res.abs_error_bound
        )

    def test_gumbel_limit(self):
        for c in (1.0, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            for delta in (-0.5, 0.0, 0.7):
                res = p_delta(ldm("gumbel", c, delta))
                self._assert_within(res, gumbel_p_delta(c, delta), (c, delta))

    def test_gumbel_finite_n(self):
        for c in (1.0, 0.1, 1e-2, 1e-4, 1e-6):
            for delta in (-0.5, 0.7):
                for n in (2, 100, 10**4, 10**6):
                    res = p_n_delta(ldm("gumbel", c, delta), n)
                    want = gumbel_p_n_delta(c, delta, n)
                    self._assert_within(res, want, (c, delta, n))

    # n from 2 to 1e7: at large n the gauge is about 1e-14 and the bound
    # is almost all quantile cut, which the error of Dagum(1, 2) nearly
    # reaches at n = 1e7
    UNIT_TREND_N = (2, 5, 10, 30, 100, 300, 10**3, 3000, 10**4, 30000, 10**5, 300000,
                    10**6, 3 * 10**6, 10**7)

    def test_pareto_at_unit_trend(self):
        for delta in (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 2.5, 5.0):
            for n in self.UNIT_TREND_N:
                res = p_n_delta(ldm("pareto1", 1.0, delta), n)
                self._assert_within(res, pareto_p_n_delta(delta, n), (delta, n))

    def test_dagum_at_trend_equal_to_scale(self):
        for q in (0.5, 1.0, 2.0, 3.0):
            for n in self.UNIT_TREND_N:
                res = p_n_delta(ldm(f"dagum:b=1,q={q}", 1.0, 0.0), n)
                self._assert_within(res, dagum_p_n0(q, n), (q, n))

    @pytest.mark.parametrize("key", sorted(NORMAL_REFERENCE, key=str), ids=str)
    def test_normal_against_mpmath(self, key):
        c, delta, n = key
        cfg = ldm("normal", c, delta)
        res = p_delta(cfg) if n is None else p_n_delta(cfg, n)
        self._assert_within(res, NORMAL_REFERENCE[key], key)

    @pytest.mark.parametrize("key", sorted(EXPONENTIAL_REFERENCE, key=str), ids=str)
    def test_exponential_against_mpmath(self, key):
        c, delta, n = key
        cfg = ldm("exp", c, delta)
        res = p_delta(cfg) if n is None else p_n_delta(cfg, n)
        self._assert_within(res, EXPONENTIAL_REFERENCE[key], key)

    @pytest.mark.parametrize("n", [2, 10, 10**3, 10**6, 10**7])
    @pytest.mark.parametrize("dist", [Normal(), Gumbel(), ParetoUnit(), Dagum(b=1.0, q=2.0),
                                      Exponential()], ids=repr)
    def test_zero_trend_is_renyi(self, dist, n):
        # at c = 0 and delta = 0 observation n is a record with probability
        # 1/n for every continuous law; at large n the Pareto and Dagum
        # errors come close to the bound's 1e-12 quantile cut
        res = p_n_delta(LdmConfig(dist, 0.0, 0.0), n)
        self._assert_within(res, 1.0 / n, (dist, n))

    @pytest.mark.xfail(strict=True, reason=(
        "the spike u^(n-1), about 1/n wide below the support's top, falls "
        "between the first pass's nodes: 1.8e-15 +- 1.8e-15 for 1e-5"))
    def test_uniform_zero_trend_at_large_n(self):
        n = 10**5
        self._assert_within(p_n_delta(LdmConfig(Uniform(), 0.0, 0.0), n), 1.0 / n, n)

    @pytest.mark.xfail(strict=True, reason=(
        "the product's rise from 0 to 1 over about sqrt(c) below where it "
        "reaches the top is lost: 0.5 +- 5.6e-15"))
    def test_uniform_limit_rises_with_a_small_trend(self):
        # p is about 0.5 + sqrt(pi c / 2) = 0.5000125 at c = 1e-10
        assert p_delta(LdmConfig(Uniform(), 1e-10, -0.5)).value > 0.5 + 1e-5

    @pytest.mark.parametrize("n", [100, 10**3, 10**5, 10**7])
    @pytest.mark.parametrize("c", [1e-9, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-17])
    def test_gumbel_finite_n_at_tiny_trend(self, c, n):
        # (G(b) - G(a))/c of the tail lost its main term to cancellation
        # here, by up to 104 times the bound at n = 1000, or raised
        # QuadratureError; the midpoint sum has no cancellation
        res = p_n_delta(ldm("gumbel", c, 0.0), n)
        self._assert_within(res, gumbel_p_n_delta(c, 0.0, n), (c, n))

    @pytest.mark.parametrize("c", [10.0**-k for k in range(10, 20)])
    @pytest.mark.parametrize("spec", sorted(FIRST_ORDER_LAWS))
    def test_first_order_in_a_tiny_trend(self, spec, c):
        # p_1000 at delta = 0.1 against p(0) + c p'(0); the second-order
        # term is far below every bound at these c.  The tail's
        # cancellation missed by up to 210 times the bound in this band,
        # or raised QuadratureError
        p0, slope = _first_order_reference(spec, 0.1, 999)
        res = p_n_delta(ldm(spec, c, 0.1), 1000)
        self._assert_within(res, p0 + c * slope, (spec, c))

    @pytest.mark.parametrize("c, exact", [
        (1e-9, 0.50100049995842077), (1e-12, 0.50100000049999996),
    ])
    def test_uniform_with_its_kinks_past_the_cap(self, c, exact):
        # p_1000 at delta = -0.5 puts 999 kinks in [0.5 - 999 c, 0.5],
        # more than become panel edges; exact values from a 40-digit
        # Gauss-Legendre sum over the pieces.  The tail missed by 1.95
        # and 5.5 times the bound
        res = p_n_delta(LdmConfig(Uniform(), c, -0.5), 1000)
        self._assert_within(res, exact, c)

    def test_exponential_reference_is_live(self):
        # one frozen value recomputed, and one fresh case at a larger trend
        key = (1e-5, 0.3, None)
        assert _exponential_reference(*key) == pytest.approx(
            EXPONENTIAL_REFERENCE[key], rel=1e-14
        )
        self._assert_within(
            p_delta(ldm("exp", 0.1, -0.5)), _exponential_reference(0.1, -0.5), "exp"
        )


class TestWindowEdges:
    """Record integrals at the edges of their set-up: trends so small that
    the count of factors below a finite top overflows, windows that the
    product cutoff empties or raises far above the law's scale, and heads
    that no shorter tail can follow."""

    def test_count_of_factors_below_the_top(self):
        y = np.array([-0.5, 0.0, 0.5, 0.9, 1.0, 2.0])
        # (1 - y) / 0.25 = 6, 4, 2, 0.4, 0, -4
        got = _below_top(Uniform(), 0.25, y)
        assert got.tolist() == [5.0, 3.0, 1.0, 0.0, 0.0, 0.0]
        assert _below_top(Uniform(), 5e-324, y).tolist() == [math.inf] * 3 + [
            math.inf, 0.0, 0.0
        ]
        assert _below_top(Gumbel(), 0.25, y) == math.inf

    @pytest.mark.parametrize("c", [1e-20, 1e-300, 5e-324])
    def test_tiny_trend_on_a_bounded_law(self, c):
        # the kinks' index range and the head cap overflowed here; the
        # value is the c -> 0 one, the integral of (x - 0.1)^4 over [0.1, 1]
        res = p_n_delta(ldm("uniform", c, 0.1), 5)
        assert abs(res.value - 0.9**5 / 5) <= res.abs_error_bound
        # c = 0 takes the power F^4 and sums no factor one by one
        zero = p_n_delta(ldm("uniform", 0.0, 0.1), 5)
        assert zero.truncation_n == 0
        assert res == replace(zero, truncation_n=4)

    def test_a_head_that_no_shorter_tail_follows_is_summed_whole(self):
        # no head shorter than the 3004 factors met the remainder budget;
        # a tail start past the last factor gave nodes above the window's
        # low end an unchecked tail, and math.expm1 overflowed
        c, delta, n = 2.9569521905820055e-05, 248.7788982675509, 3005
        res = p_n_delta(ldm("gumbel", c, delta), n)
        assert res.truncation_n == n - 1
        assert abs(res.value - gumbel_p_n_delta(c, delta, n)) <= res.abs_error_bound

    @pytest.mark.parametrize("spec, delta, want", [
        ("pareto1", 2e12, pareto_p_n_delta(2e12, 2)),
        ("exp", 40.0, 0.5 * math.exp(-39.0)),
    ])
    def test_an_empty_window_is_bounded_by_the_omitted_mass(self, spec, delta, want):
        # the cutoff passes the window's top, yet mass lies beyond it
        res = p_n_delta(ldm(spec, 1.0, delta), 2)
        assert res.value == 0.0
        assert want <= res.abs_error_bound == 1e-12

    def test_an_overflowing_cutoff_empties_the_window(self):
        # supp_lo + delta - c (n - 1) is inf at c = -1e308
        res = p_n_delta(ldm("pareto1", -1e308, 0.0), 5)
        assert (res.value, res.abs_error_bound) == (0.0, 1e-12)

    def test_an_empty_window_of_a_bounded_law_is_exact(self):
        res = p_n_delta(ldm("uniform", 1.0, 2.5), 2)
        assert (res.value, res.abs_error_bound) == (0.0, 0.0)

    def test_exponential_second_observation(self):
        # p_2 = e^(-rate (delta - c)) / 2 for delta >= c, over windows the
        # cutoff raises or empties: 64 of these missed their bound when an
        # empty window reported a bound of 0
        rng = np.random.default_rng(7)
        for _ in range(200):
            rate, c = 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-2, 1)
            delta = c + rng.uniform(0.0, 60.0) / rate
            res = p_n_delta(LdmConfig(Exponential(rate), c, delta), 2)
            want = 0.5 * math.exp(-rate * (delta - c))
            assert abs(res.value - want) <= res.abs_error_bound, (rate, c, delta)

    def test_pareto_windows_raised_far_above_the_scale(self):
        # delta up to 8e11 puts the cutoff, and so the window's low end,
        # up to 8e11 times the median's distance from the support's end;
        # before the cutoff's own panel edges 19 of these missed their
        # bound, by up to 2.85 times
        rng = np.random.default_rng(5)
        for _ in range(600):
            delta = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 11.9))
            n = int(10 ** rng.uniform(0.31, 6))
            res = p_n_delta(ldm("pareto1", 1.0, delta), n)
            want = pareto_p_n_delta(delta, n)
            assert abs(res.value - want) <= res.abs_error_bound, (delta, n)

    def test_dagum_window_raised_far_above_the_scale(self):
        # F(x) = x / (x + 2): p_3 at c = 1, delta = 5e5 by mpmath, with the
        # window's low end delta - 1 moved to 0
        with mp.workdps(30):
            b, delta = mp.mpf(2), mp.mpf(500000)

            def g(u):
                return b / (u + delta - 1 + b) ** 2 * u / (u + b) * (u + 1) / (u + 1 + b)

            pts = [0] + [mp.mpf(10) ** k for k in range(-2, 12)] + [mp.inf]
            want = float(mp.quad(g, pts))
        assert want == pytest.approx(3.9996457236332145e-06, rel=1e-15)
        res = p_n_delta(LdmConfig(Dagum(b=2.0, q=1.0), 1.0, 5e5), 3)
        assert abs(res.value - want) <= res.abs_error_bound


def _count_log_cdf_points(monkeypatch, cls):
    seen = []
    original = cls.log_cdf

    def log_cdf(self, x):
        seen.append(np.size(x))
        return original(self, x)

    monkeypatch.setattr(cls, "log_cdf", log_cdf)
    return seen


class TestCostDoesNotGrow:
    """The work of p_n and p, counted in log F evaluations, stays flat as n
    grows or c shrinks once the answer stops changing."""

    def test_finite_n_cost_flat_in_n(self, monkeypatch):
        seen = _count_log_cdf_points(monkeypatch, Normal)
        cfg = ldm("normal", 0.1, 0.5)
        work, results = [], []
        for n in (10**3, 10**7):
            seen.clear()
            results.append(p_n_delta(cfg, n))
            work.append(sum(seen))
        assert work[1] <= 3 * work[0]
        small, big = results
        assert abs(small.value - big.value) <= small.abs_error_bound + big.abs_error_bound
        assert big.truncation_n < 200

    def test_zero_trend_cost_flat_in_n(self, monkeypatch):
        # the product is F^(n-1): 1e7 factors cost what 1e3 do
        seen = _count_log_cdf_points(monkeypatch, Normal)
        cfg = ldm("normal", 0.0, 0.5)
        work = []
        for n in (10**3, 10**7):
            seen.clear()
            res = p_n_delta(cfg, n)
            work.append(sum(seen))
            assert res.truncation_n == 0
        assert work[1] <= 3 * work[0]

    def test_tiny_trend_cost_flat_in_n(self, monkeypatch):
        # the midpoint sum takes every factor at one argument, as at c = 0
        seen = _count_log_cdf_points(monkeypatch, Gumbel)
        cfg = ldm("gumbel", 1e-15, 0.0)
        work = []
        for n in (10**3, 10**7):
            seen.clear()
            res = p_n_delta(cfg, n)
            work.append(sum(seen))
            assert res.truncation_n == 0
        assert work[1] <= 3 * work[0]

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: where no head short of m meets the budget, and at "
        "c < 0, every factor is summed directly, though the product is "
        "negligible on the whole window; today 67x (Gumbel) and 100x (Normal)"))
    @pytest.mark.parametrize("spec,cls,c,delta,n_small,n_big", [
        ("gumbel", Gumbel, 2.9569521905820055e-05, 248.7788982675509, 3005, 2 * 10**5),
        ("normal", Normal, -0.1, 0.5, 10**3, 10**5),
    ], ids=["gumbel-negligible-product", "normal-negative-trend"])
    def test_negligible_product_cost_flat_in_n(self, monkeypatch, spec, cls, c, delta,
                                               n_small, n_big):
        seen = _count_log_cdf_points(monkeypatch, cls)
        cfg = ldm(spec, c, delta)
        work = []
        for n in (n_small, n_big):
            seen.clear()
            p_n_delta(cfg, n)
            work.append(sum(seen))
        assert work[1] <= 3 * work[0]

    def test_normal_limit_at_small_trend_needs_a_short_head(self):
        # the fourth-order tail needed 593 direct factors per node here;
        # the sixth-order one starts at the first factor
        res = p_delta(ldm("normal", 0.01256, 0.326))
        assert res.truncation_n <= 64
        assert res.value > 0.0

    @pytest.mark.parametrize("spec,cls,c", [
        ("gumbel", Gumbel, 1e-6),
        ("exp", Exponential, 1e-5),
    ])
    def test_limit_cost_flat_in_trend(self, monkeypatch, spec, cls, c):
        # a direct product would need ~14/c factors per node: 1.4e7 for
        # the Gumbel case, about 3e6 for the exponential one
        seen = _count_log_cdf_points(monkeypatch, cls)
        res = p_delta(ldm(spec, c, 0.0))
        assert sum(seen) <= 10_000
        assert res.value > 0.0

    @pytest.mark.parametrize("tol", [1e-30, 1e-36])
    def test_direct_head_stops_at_a_finite_top(self, monkeypatch, tol):
        # about 1.1e4 factors reach the top at 1; a head of 3.8e5 factors
        # per node made the 1e-36 call run for more than ten minutes
        seen = _count_log_cdf_points(monkeypatch, Uniform)
        res = p_delta(ldm("uniform", 1e-4, 0.1), tol=tol)
        assert res.truncation_n <= 10_000
        assert sum(seen) <= 25_000_000
        assert res.abs_error_bound <= tol
        assert res.value > 0.0

    def test_zero_trend_verdict_is_read_from_the_tail(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("integrate was called")

        monkeypatch.setattr(probability, "integrate", no_quadrature)
        monkeypatch.setattr(distributions, "integrate", no_quadrature)
        for dist in (Gumbel(), Exponential(), ParetoUnit(), Dagum(b=1.0, q=2.0)):
            for delta in (1e-6, 0.1, 50.0):
                v = classify_finiteness(LdmConfig(dist, c=0.0, delta=delta))
                assert v.verdict == INFINITE
        # the uniform value is exact, so its Finite verdict integrates nothing
        for dist in (Uniform(), Uniform(lo=-1.0, hi=3.0), Uniform(lo=-2.0, hi=-1.0)):
            for delta in (1e-6, 0.1, 50.0):
                v = classify_finiteness(LdmConfig(dist, c=0.0, delta=delta))
                assert v.verdict == ALMOST_SURELY_FINITE

    def test_heavy_tailed_integrals_take_one_pass(self, monkeypatch):
        # the geometric first grid has enough panels per decade that the
        # K15 - G7 gauge of a Pareto or Dagum window, 12 or 15 decades
        # wide, meets the tolerance without a bisection round
        passes = []
        real = quadrature._panel_rule

        def counted(*args):
            passes[-1] += 1
            return real(*args)

        monkeypatch.setattr(quadrature, "_panel_rule", counted)
        for dist in (Dagum(b=1.0, q=2.0), ParetoUnit()):
            for c in (1e-3, 1e-2, 0.1, 1.0):
                for delta in (-0.5, 0.25, 1.0):
                    for n in (2, 100, 10**4):
                        passes.append(0)
                        p_n_delta(LdmConfig(dist, c, delta), n)
        assert len(passes) == 72
        assert np.median(passes) == 1
        assert max(passes) <= 2

    @pytest.mark.parametrize("dist", [Normal(), Gumbel(), Exponential(), Normal(1.0, 3.0)],
                             ids=repr)
    def test_light_tailed_windows_start_with_sixteen_panels(self, monkeypatch, dist):
        # their windows are linear, so the first pass has 16 panels of 15
        # nodes whatever the trend, threshold or index
        sizes = _count_integrand_calls(monkeypatch, probability)
        for c, delta in ((0.3, 0.6), (0.01, -0.4), (7e-4, 0.0)):
            for call in (lambda: p_n_delta(LdmConfig(dist, c, delta), 50),
                         lambda: p_delta(LdmConfig(dist, c, delta))):
                sizes.clear()
                call()
                assert sizes[0] == 16 * 15

    def test_normal_value_cost_flat_in_delta(self, monkeypatch):
        # the integral's scale grows like 1/delta^2, its window like 1/delta
        points = _count_integrand_calls(monkeypatch, distributions)
        work = []
        for delta in (0.5, 1e-6):
            points.clear()
            classify_finiteness(ldm("normal", 0.0, delta))
            work.append(sum(points))
        assert 0 < work[1] < 10 * work[0]


class TestLogProduct:
    """The head-plus-tail engine against the direct sum of every factor.
    A case of a law with a scale runs on its standard member, at c over
    the scale, as the record integral runs it."""

    CASES = [
        ("gumbel", 0.01, 5000),
        ("gumbel", 1.0, 1000),
        ("normal", 0.1, 3000),
        ("normal:mu=2,sigma=0.5", 0.003, 20000),
        ("exp:rate=0.25", 0.02, 4000),
        ("pareto1", 0.5, 2000),
        ("dagum:b=3,q=0.5", 0.2, 5000),
        ("uniform:lo=-1,hi=3", 0.003, 10**6),
    ]

    @staticmethod
    def _run(spec, c, m, budget):
        dist, c = _member(spec, c)
        y = dist.quantile(np.array([0.01, 0.3, 0.7, 0.99]))
        got, head, eps = _log_product(dist, y, c, m, _tail_threshold(dist, c, budget),
                                      10.0 * budget)
        want = np.array([
            math.fsum(dist.log_cdf(v + c * np.arange(1, m + 1))) for v in y
        ])
        return np.abs(got - want), want, head, eps

    @pytest.mark.parametrize("spec,c,m", CASES)
    def test_remainder_within_bound(self, spec, c, m):
        err, want, head, eps = self._run(spec, c, m, 1e-9)
        assert head + 64 <= m  # the tail was used
        assert eps <= 1e-9
        assert np.all(err <= eps + 1e-13 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("spec,c,m", [
        ("gumbel", 1.0, 1000),
        ("exp:rate=0.25", 0.02, 4000),
        ("pareto1", 0.5, 2000),
        ("dagum:b=3,q=0.5", 0.2, 5000),
    ])
    def test_bound_is_not_vacuous(self, spec, c, m):
        # a loose budget starts the tail at the first factor, where the
        # remainder is large enough to compare with its bound
        err, _, head, eps = self._run(spec, c, m, 1.0)
        assert head == 0
        assert err.max() <= eps <= 100.0 * err.max()

    @pytest.mark.parametrize("spec,c,m", [
        ("gumbel", 1.0, 1000),
        ("normal", 1.0, 1000),
        ("exp:rate=0.25", 0.02, 4000),
    ])
    def test_sixth_order_term_is_applied(self, spec, c, m):
        # where g^(5) is monotone over the tail, leaving out the term
        # (c^5/30240) D g^(5) would leave an error about as large as the
        # bound; with it, the error is about the next, eighth-order term
        err, _, head, eps = self._run(spec, c, m, 1.0)
        assert head == 0
        assert err.max() <= 0.1 * eps

    @pytest.mark.parametrize("c, most", [(1e-8, 1e-10), (1e-10, 3e-9), (1e-13, 1e-13)])
    def test_each_path_within_its_bound(self, c, most):
        # one Gumbel node, y = 7 and m = 1e5, where S = -91.  At c = 1e-8
        # the tail's error is its cancellation term, 4e-11; at 1e-13 the
        # tail is 4e-6 off, and the midpoint sum, whose spread is 2.3e-15,
        # is exact to rounding; at 1e-10 neither meets tol/5, and the
        # midpoint's spread, 2.3e-9, is the smaller error (the tail's is
        # 4e-9)
        dist, m = Gumbel(), 10**5
        got, head, eps = _log_product(dist, np.array([7.0]), c, m,
                                      _tail_threshold(dist, c, 1e-9), 1e-8)
        want = math.fsum(dist.log_cdf(7.0 + c * np.arange(1, m + 1)))
        assert head == 0
        assert abs(got[0] - want) <= eps < most

    @pytest.mark.parametrize("c,m", [(-0.01, 1000), (0.5, 64)])
    def test_without_a_tail_every_factor_is_summed(self, c, m):
        # no tail threshold for c < 0 or m <= 64: the head is the whole
        # product
        dist = parse_spec("gumbel")
        assert _record_integral(LdmConfig(dist, c, 0.0), m, 1e-8)[0].truncation_n == m
        y = dist.quantile(np.array([0.01, 0.5, 0.99]))
        got, head, eps = _log_product(dist, y, c, m, math.inf, DEFAULT_TOL)
        want = [math.fsum(dist.log_cdf(v + c * np.arange(1, m + 1))) for v in y]
        assert got == pytest.approx(want, rel=1e-13)
        # the error is the rounding of the sum, eps |S|, at live nodes
        assert head == m
        assert eps <= np.finfo(float).eps * np.abs(got).max()

    def test_zero_trend_is_one_factor_to_the_power_m(self):
        # at c = 0 every factor is F(y): the midpoint sum is m log F(y),
        # with no head and only its rounding for an error, and the empty
        # product is 1 even where F(y) = 0, as 0 log F(y) would be nan
        dist = ParetoUnit()
        y = np.array([0.5, 1.5, 3.0, 1e6])
        assert _record_integral(LdmConfig(dist, 0.0, 0.0), 1000, 1e-8)[0].truncation_n == 0
        for m in (1, 1000, 10**7):
            got, head, eps = _log_product(dist, y, 0.0, m, math.inf, DEFAULT_TOL)
            assert got.tolist() == (m * dist.log_cdf(y)).tolist()
            assert head == 0
            assert 0.0 < eps <= np.finfo(float).eps * np.abs(got[1:]).max()
            assert got[0] == -math.inf
            want = [math.fsum(np.full(m, dist.log_cdf(v))) for v in y[1:]]
            assert got[1:] == pytest.approx(want, rel=1e-13)
        got, head, eps = _log_product(dist, y, 0.0, 0, math.inf, DEFAULT_TOL)
        assert got.tolist() == [0.0] * 4
        assert (head, eps) == (0, 0.0)


def _remainder_fits(dist, c, a, budget):
    """Whether (c^5/30240) TV(g^(5)) over [a, +inf) meets budget, for each
    first tail argument a, with g^(5)(+inf) = 0."""
    with np.errstate(over="ignore", divide="ignore"):
        d5 = dist.log_cdf_em(a)[3]
        tv = probability._d5_variation(dist, a, math.inf, d5, 0.0)
        return tv * c**5 / 30240.0 <= budget


class TestTailThreshold:
    """The tail threshold is a property of the law, c and the budget: it
    is searched for once, and every integral reads its head from it."""

    def test_one_search_per_law_trend_and_tol(self):
        probability._tail_threshold.cache_clear()
        for delta in np.linspace(-0.5, 1.5, 41):
            p_delta(ldm("normal", 0.3, float(delta)))
        for n in (100, 10**3, 10**4):
            p_n_delta(ldm("normal", 0.3, 0.5), n)
        info = probability._tail_threshold.cache_info()
        assert info.misses == 1
        assert info.hits == 43

    @pytest.mark.parametrize("delta", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize("spec,c,m", TestLogProduct.CASES + [
        # a support far from 0, and a trend at which the threshold lies
        # about 15 c above the support's low end
        ("uniform:lo=1e6,hi=1000001", 0.01, 5000),
        ("exp", 1e-12, 1000),
    ])
    def test_head_meets_the_budget_and_is_near_the_shortest(self, spec, c, m, delta):
        # the shortest head that meets the budget at the window's low end,
        # by a scan over every k < m, against the head _log_product reads
        # from the tail threshold there
        dist, c, delta = _member(spec, c, delta)
        budget = DEFAULT_TOL / 10.0
        lo = max(_density_weight(dist)[0].lo, probability._product_cutoff(dist, c, delta, m))
        y_lo = lo - delta
        fits = _remainder_fits(dist, c, y_lo + c * np.arange(1.0, m + 1.0), budget)
        shortest = int(np.argmax(fits)) if fits.any() else m
        a = _tail_threshold(dist, c, budget)
        q = (a - y_lo) / c  # -inf where every finite double meets the budget
        K = m if q > m else math.ceil(q) - 1 if q > 1.0 else 0
        _, head, _ = _log_product(dist, np.array([y_lo]), c, m, a, 10.0 * budget)
        # every factor is summed directly when fewer than 64 would be left,
        # and none past a finite support top
        assert head == min(K if m - K >= 64 else m, _below_top(dist, c, y_lo))
        if K >= m:
            assert shortest + 1 >= m
            return
        assert _remainder_fits(dist, c, np.array([y_lo + c * (K + 1.0)]), budget)[0]
        assert shortest <= K <= shortest + 1

    @pytest.mark.parametrize("spec", ["normal", "gumbel", "exp"])
    def test_call_order_cannot_change_a_value(self, spec):
        probability._tail_threshold.cache_clear()
        cold = p_delta(ldm(spec, 0.3, 0.5))
        probability._tail_threshold.cache_clear()
        p_delta(ldm(spec, 0.3, -0.3))
        warm = p_delta(ldm(spec, 0.3, 0.5))
        assert repr(warm) == repr(cold)

    @pytest.mark.parametrize("spec,c,delta,want", [
        # the threshold, about -151, lies more than 2**52 steps of c above
        # the window's low end at about -803, where g^(5) = e^803: the
        # head is too long to sum
        ("gumbel", 1e-14, 800.0, None),
        # every finite double meets the budget, so no factor is summed
        # directly
        ("normal", 1e-15, 10.0, 0.0),
        # g^(5) overflows within about 4e-62 of the support's low end, and
        # the threshold lies just past that, below the first factor at
        # 0.5; the value is the c -> 0 limit 1 - F(1 + delta)
        ("uniform", 1e-80, -0.5, 0.5),
    ])
    def test_tiny_trend_heads_are_read_from_the_threshold(self, spec, c, delta, want):
        cfg = ldm(spec, c, delta)
        if want is None:
            with pytest.raises(DriftRecordsError, match="never met its budget"):
                p_delta(cfg)
            return
        res = p_delta(cfg)
        assert res.truncation_n == 0
        assert abs(res.value - want) <= res.abs_error_bound <= 1e-11

    @pytest.mark.parametrize("spec,bound", [("uniform", 0.0), ("exp", 1e-12)])
    def test_a_threshold_lies_past_where_g5_overflows(self, spec, bound):
        # g^(5) overflows within about 4e-62 of the support's low end, and
        # the doubles past that meet the budget at any c: p at delta = 0.1
        # reads 0 with the bound it has at c = 1e-76, each trend searched
        # once
        probability._tail_threshold.cache_clear()
        trends = (1e-76, 1e-80, 1e-100, 1e-150, 1e-300)
        for c in trends:
            for _ in range(2):
                assert p_delta(ldm(spec, c, 0.1)) == ProbResult(0.0, bound, 0)
        info = probability._tail_threshold.cache_info()
        assert (info.misses, info.hits) == (len(trends), len(trends))

    @pytest.mark.parametrize("spec,c,delta", [
        ("uniform", 1e-22, 0.1), ("uniform", 1e-80, 0.1), ("uniform", 1e-100, 0.1),
        ("exp", 1e-20, 0.1), ("exp", 1e-80, 0.1), ("exp", 1e-100, 0.1),
        ("normal", 1e-20, 0.1), ("pareto1", 1e-17, 0.5),
    ])
    def test_a_tail_whose_ends_round_together_takes_the_midpoint_sum(self, spec, c, delta):
        # the threshold lies below the first factor, but y + c and
        # y + 999 c round together, so the tail's D G / c would lose its
        # main term: its cancellation term is far past the budget, and
        # the midpoint sum, which sums no factor directly, reads the
        # c -> 0 value
        res = p_n_delta(ldm(spec, c, delta), 1000)
        flat = p_n_delta(ldm(spec, 0.0, delta), 1000)
        assert res.truncation_n == 0
        assert abs(res.value - flat.value) <= flat.abs_error_bound
        exact = {"uniform": 0.9**1000 / 1000, "exp": math.exp(-0.1) / 1000}.get(spec)
        if exact is not None:
            assert abs(res.value - exact) <= res.abs_error_bound


class TestIntegralSetup:
    """The window and the tail start are set up once per integral.  The
    only state that passes from one integral to another is what depends
    on neither delta nor n: f's window, kept per law, and the tail
    threshold, kept per (law, c, tol)."""

    def test_window_is_computed_once_per_law(self, monkeypatch):
        calls = []
        real = Normal.quantile
        monkeypatch.setattr(
            Normal, "quantile", lambda self, u: calls.append(u) or real(self, u)
        )
        probability._density_weight.cache_clear()
        dist = Normal(mu=0.25, sigma=1.5)
        for _ in range(3):
            for c, delta in [(0.3, 0.0), (0.01, -0.4), (7e-4, 0.6)]:
                p_delta(LdmConfig(dist, c, delta))
                p_n_delta(LdmConfig(dist, c, delta), 50)
        assert len(calls) == 2  # one per unbounded end of the support

    def test_interleaved_integrals_are_bit_identical(self):
        # the integrand of one integral runs a whole other integral at
        # every call, and both still give the bits they give alone
        a, b = ldm("gumbel", 0.3, 0.6), ldm("normal", 0.3, -0.4)
        alone_a = _record_integral(a, math.inf, 1e-8)
        alone_b = _record_integral(b, 3000, 1e-8)
        inner = []

        def weight(x):
            inner.append(_record_integral(b, 3000, 1e-8))
            return a.dist.pdf(x)

        assert _record_integral(
            a, math.inf, 1e-8, (replace(_density_weight(a.dist)[0], fn=weight),)
        ) == alone_a
        assert inner and set(inner) == {alone_b}
        assert _record_integral(b, 3000, 1e-8) == alone_b
        assert alone_a[0].truncation_n > 0 and alone_b[0].truncation_n > 0


def _shifted(f, s, dist):
    """f(x - s): the density weight moved right by s, kinked at the
    finite support ends + s."""
    return Weight(lambda x: f.fn(x - s), f.lo + s, f.hi + s,
                  tuple(e + s for e in dist.support if math.isfinite(e)))


class TestWeights:
    """Each weight of a record integral states its own window and kinks,
    and one quadrature covers the union of the windows."""

    @pytest.mark.parametrize("spec", ["normal", "gumbel", "exp"])
    @pytest.mark.parametrize("c,delta,m", [
        (0.3, 0.5, 50), (0.05, 0.2, math.inf), (1.0, -0.4, 10),
    ])
    def test_delta_grid_from_one_quadrature(self, spec, c, delta, m):
        # with y = x - s, f(x - s) under the product at delta is f under
        # the product at delta - s: three thresholds from one call, whose
        # window reaches 0.7 past f's on both sides
        cfg = ldm(spec, c, delta)
        f, _ = _density_weight(cfg.dist)
        shifts = (0.0, 0.7, -0.7)
        got = _record_integral(
            cfg, m, DEFAULT_TOL, [_shifted(f, s, cfg.dist) for s in shifts]
        )
        for s, res in zip(shifts, got):
            one = LdmConfig(cfg.dist, c, delta - s)
            want = p_delta(one) if m == math.inf else p_n_delta(one, m + 1)
            assert abs(res.value - want.value) <= res.abs_error_bound + want.abs_error_bound, (
                s, res, want)


# the four entries that run a record integral, each as a function of
# the model alone
ENTRIES = {
    "p_delta": p_delta,
    "p_n_delta": lambda cfg: p_n_delta(cfg, 1000),
    "joint_prob_consecutive": lambda cfg: joint_prob_consecutive(cfg, 50),
    "dependence_index_result": lambda cfg: dependence_index_result(cfg, 5),
}

# the law methods that evaluate g, F, f or G at their argument
_EVALUATIONS = ("cdf", "log_cdf", "log_sf", "pdf", "log_cdf_em")
# and every law method that a record integral may call
_LAW_METHODS = _EVALUATIONS + ("quantile", "tail_info")


class TestLawContract:
    """The record integral asks a law only for what its contract leaves
    open."""

    @pytest.mark.parametrize("dist", [Gumbel(), ParetoUnit(), Dagum(b=1.0, q=2.0), Normal(),
                                      Uniform(), Exponential()], ids=repr)
    def test_no_law_method_is_called_at_plus_infinity(self, monkeypatch, dist):
        # g^(5)(+inf) = 0 for every law, and the tail threshold asked for
        # it once per search
        args = []
        for name in _EVALUATIONS:
            original = getattr(type(dist), name)

            def counted(self, x, name=name, original=original):
                args.append((name, x))
                return original(self, x)

            monkeypatch.setattr(type(dist), name, counted)
        cfg = LdmConfig(dist, 0.01, 0.5)
        p_delta(cfg)
        p_n_delta(cfg, 1000)
        # the tail threshold searched, and each Euler-Maclaurin tail ran
        assert "log_cdf_em" in {name for name, _ in args}
        assert [name for name, x in args if np.ndim(x) == 0 and x == math.inf] == []

    @pytest.mark.parametrize("dist", [Normal(0.3, 2.0), Uniform(-1.0, 2.0), Exponential(1.5),
                                      Dagum(2.0, 0.5)], ids=repr)
    def test_no_entry_calls_a_method_of_the_law_itself(self, monkeypatch, dist):
        # the four entries ask only the law's standard member, which f's
        # window, kept per law, then shares with every law of its family
        member = dist.standard()[0]
        callers = set()
        for name in _LAW_METHODS:
            original = getattr(type(dist), name)

            def counted(self, *args, original=original, **kwargs):
                callers.add(self)
                return original(self, *args, **kwargs)

            monkeypatch.setattr(type(dist), name, counted)
        probability._density_weight.cache_clear()
        cfg = LdmConfig(dist, 0.01, 0.5)
        for fn in ENTRIES.values():
            fn(cfg)
        assert callers == {member}

    @pytest.mark.parametrize("c, delta, want, exact", [
        (0.5, 0.0, ProbResult(0.875, 9.84901862806705e-15, 1), Fraction(7, 8)),
        (0.5, 0.5, ProbResult(0.47916666666666674, 6.268959593889328e-15, 2),
         Fraction(23, 48)),
        (0.1, -0.5, ProbResult(0.8762920000000001, 9.961225803187159e-15, 4),
         Fraction(219073, 250000)),
        (0.1, 0.0, ProbResult(0.4129734150151588, 5.310617924131635e-15, 9),
         Fraction(5203465029191, 12600000000000)),
    ])
    def test_no_tail_past_a_top_that_caps_the_head(self, monkeypatch, c, delta, want, exact):
        # every factor past the head is 1 at every node, and the tail
        # only added zeros; the results keep their bits, and each bound
        # counts eps |S| for the rounding of the direct sum S
        tails = []
        real = probability._em_tail
        monkeypatch.setattr(probability, "_em_tail", lambda *a: tails.append(a) or real(*a))
        cfg = LdmConfig(Uniform(), c, delta)
        for got in (p_delta(cfg), p_n_delta(cfg, 1000)):
            assert got == want
            assert abs(Fraction(got.value) - exact) <= Fraction(got.abs_error_bound)
        assert tails == []


class TestStandardMember:
    """Every record integral runs on its law's standard member, at c and
    delta over the law's scale: a location-scale family has the record
    probabilities of its member there."""

    @pytest.mark.parametrize("dist, member, scale", [
        (Gumbel(), Gumbel(), 1.0), (ParetoUnit(), ParetoUnit(), 1.0),
        (Normal(0.3, 2.0), Normal(), 2.0), (Uniform(-1.0, 2.0), Uniform(), 3.0),
        (Exponential(1.5), Exponential(), 1.0 / 1.5), (Dagum(2.0, 0.5), Dagum(1.0, 0.5), 2.0),
    ], ids=repr)
    def test_each_law_names_its_member_and_scale(self, dist, member, scale):
        assert dist.standard() == (member, scale)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_a_trend_that_underflows_is_the_members_zero_trend(self, entry):
        # c / sigma = 1e-330 is 0 in doubles: the member's c = 0 answer,
        # not an infinite head
        fn = ENTRIES[entry]
        got = fn(LdmConfig(Normal(0.0, 1e300), 1e-30, 0.5e300))
        assert got == fn(LdmConfig(Normal(), 0.0, 0.5))

    @pytest.mark.parametrize("dist, delta, want", [
        (Normal(0.0, 1e300), 0.5, 0.0),
        # 1 - F(1 + delta / sigma) for the member
        (Uniform(0.0, 1e300), -0.25e300, 0.25),
    ], ids=repr)
    def test_limit_at_an_underflowing_trend(self, dist, delta, want):
        res = p_delta(LdmConfig(dist, 1e-30, delta))
        assert res.truncation_n == 0
        assert abs(res.value - want) <= res.abs_error_bound

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("c, delta", [(1e10, 0.1), (1e-300, 1e10)])
    def test_an_overflowing_ratio_names_the_scale(self, entry, c, delta):
        with pytest.raises(DriftRecordsError, match="scale 1e-300 overflow"):
            ENTRIES[entry](LdmConfig(Uniform(0.0, 1e-300), c, delta))

    # p_1000 of Uniform(1e6, 1e6 + 1): exact values by 60-digit
    # polynomial integration between the kinks
    @pytest.mark.parametrize("c, delta, exact", [
        (0.01, -0.5, 0.62699789933978544),
        (0.01, 0.5, 4.3135741305071399e-09),
        (1e-12, 0.5, 9.3326455176730339e-305),
        (1e-12, -0.5, 0.50100000049999996),
    ])
    def test_a_support_far_from_zero(self, c, delta, exact):
        res = p_n_delta(LdmConfig(Uniform(1e6, 1e6 + 1.0), c, delta), 1000)
        assert abs(res.value - exact) <= res.abs_error_bound, res

    @pytest.mark.parametrize("sigma", [1e62, 1e-66])
    @pytest.mark.parametrize("key", sorted(NORMAL_REFERENCE, key=str), ids=str)
    def test_normal_at_extreme_scales(self, sigma, key):
        # sigma^5 overflows or underflows a double; the member does not
        # see it
        c, delta, n = key
        law = LdmConfig(Normal(0.0, sigma), c * sigma, delta * sigma)
        member = LdmConfig(Normal(), law.c / sigma, law.delta / sigma)
        if n is None:
            res, want = p_delta(law), p_delta(member)
        else:
            res, want = p_n_delta(law, n), p_n_delta(member, n)
        assert res == want
        assert abs(res.value - NORMAL_REFERENCE[key]) <= res.abs_error_bound

    def test_invariance_over_a_seeded_grid(self):
        # each law at a random location and scale, against its member
        # at c and delta in member units
        rng = np.random.default_rng(21)
        for _ in range(6):
            scale = 10.0 ** rng.uniform(-40.0, 40.0)
            loc = scale * rng.uniform(-3.0, 3.0)
            c, delta = rng.choice([0.01, 0.3, 1.0]), rng.uniform(-0.5, 1.0)
            for law in (Normal(loc, scale), Uniform(loc, loc + scale),
                        Exponential(1.0 / scale), Dagum(scale, rng.uniform(0.5, 2.0))):
                member, s = law.standard()
                for entry, fn in (("p_delta", p_delta), ("p_n_delta", ENTRIES["p_n_delta"])):
                    got = fn(LdmConfig(law, c * s, delta * s))
                    want = fn(LdmConfig(member, c, delta))
                    assert abs(got.value - want.value) <= (
                        got.abs_error_bound + want.abs_error_bound), (law, c, delta, entry)
