import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest

from driftrecords import (
    ALMOST_SURELY_FINITE,
    INFINITE,
    Exponential,
    Gumbel,
    LdmConfig,
    Normal,
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
from driftrecords import probability
from driftrecords.distributions import Dagum, ParetoUnit, Uniform
from driftrecords.errors import DriftRecordsError, QuadratureError, UndecidedError
from driftrecords.probability import FinitenessVerdict, _log_product, _TailLedger
from driftrecords.quadrature import integrate


def ldm(spec, c, delta):
    return LdmConfig(parse_spec(spec), c=c, delta=delta)


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


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_tolerance_must_be_positive(tol):
    cfg = ldm("gumbel", 1.0, 0.5)
    for call in (lambda: p_n_delta(cfg, 5, tol=tol), lambda: p_n_delta(cfg, 1, tol=tol),
                 lambda: p_delta(cfg, tol=tol)):
        with pytest.raises(DriftRecordsError, match="tol must be positive"):
            call()


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

    @pytest.mark.parametrize("delta", [0.1, 5.0])
    def test_rounding_noise_does_not_leave_divergence_undecided(self, delta):
        # the integrand is the constant 3 e^(-3 delta), but its log-space
        # sum of terms near 3x leaves rounding noise that keeps far windows
        # from the relative floor of 1e-10; delta = 5 reaches the noise
        # limit long before the cap
        v = classify_finiteness(ldm("exp:rate=3", 0.0, delta))
        assert v.verdict == INFINITE
        assert v.reason == "zero_trend_survival_integral_diverges"

    def test_window_short_of_the_relative_floor_still_counts(self):
        # the integral is about 1/delta^2 for standard normal noise; at
        # delta = 1e-4 windows near its peak, x ~ 1e4, miss the relative
        # floor by rounding noise, which used to leave it undecided
        v = classify_finiteness(ldm("normal", 0.0, 1e-4))
        assert v.verdict == ALMOST_SURELY_FINITE
        assert v.integral_value == pytest.approx(1e8, rel=1e-3)

    def test_noise_limit_keeps_the_probe_from_a_false_convergence(self):
        # far out, x + delta rounds, and a window of noise read as a
        # vanishing increment used to declare this divergent case finite
        assert classify_finiteness(ldm("exp:rate=3", 0.0, 30.0)).verdict == INFINITE

    def test_probe_follows_the_mass_of_a_shifted_law(self):
        # Shifting the noise leaves the record process unchanged, so the
        # verdict must not change; on [0, 1] this integrand underflows to
        # 0, and an all-zero window must not read as convergence.
        @dataclass(frozen=True)
        class ShiftedGumbel(Gumbel):
            shift: float = 50.0

            def cdf(self, x):
                return super().cdf(np.asarray(x) - self.shift)

            def log_sf(self, x):
                return super().log_sf(np.asarray(x) - self.shift)

            def pdf(self, x):
                return super().pdf(np.asarray(x) - self.shift)

            def log_pdf(self, x):
                return super().log_pdf(np.asarray(x) - self.shift)

            def quantile(self, u):
                return super().quantile(u) + self.shift

        v = classify_finiteness(LdmConfig(ShiftedGumbel(), c=0.0, delta=0.5))
        assert v.verdict == INFINITE
        assert v.reason == "zero_trend_survival_integral_diverges"
        # the shifted normal's integral covers its whole mass, so it
        # exceeds the unshifted one, which starts at the median
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


def _per_window_zero_trend(cfg, tol=probability.DEFAULT_TOL):
    """The previous zero-trend branch of classify_finiteness (c = 0,
    delta > 0): one integrate call per doubling window.  Kept as the
    bit-for-bit reference for the batched first passes; None stands for
    UndecidedError."""
    P = probability
    dist, delta = cfg.dist, cfg.delta
    lo, hi = dist.support
    if math.isinf(dist.tail_info().mu_plus):
        return FinitenessVerdict(INFINITE, P.REASON_TAIL_MEAN_INFINITE)
    g = P._finiteness_integrand(dist, delta)
    lo0 = max(lo, 0.0)
    if math.isfinite(hi):
        top = hi - delta
        if top <= lo0:
            return FinitenessVerdict(ALMOST_SURELY_FINITE, P.REASON_ZERO_TREND_CONVERGES, 0.0)
        val, _ = integrate(g, lo0, top, tol)
        return FinitenessVerdict(ALMOST_SURELY_FINITE, P.REASON_ZERO_TREND_CONVERGES, float(val))
    total, upper = 0.0, lo0
    base = max(lo0, float(dist.quantile(0.5)))
    increments, widths = [], []
    for k in range(P._MAX_DOUBLINGS):
        new_upper = base + 2.0 ** k
        if P._finiteness_noise(dist, delta, new_upper) > P._LOG_NOISE_LIMIT:
            break
        seg_tol = max(tol / 2.0 ** (k + 1), 1e-10 * (1.0 + total))
        noisy = False
        try:
            seg, _ = integrate(g, upper, new_upper, seg_tol)
        except QuadratureError as exc:
            if not exc.error_bound <= P._NOISY_WINDOW * exc.best_estimate:
                return None
            seg, noisy = exc.best_estimate, True
        total += seg
        increments.append(seg)
        widths.append(new_upper - upper)
        upper = new_upper
        if total > P._DIVERGENCE_CAP:
            return FinitenessVerdict(INFINITE, P.REASON_ZERO_TREND_DIVERGES)
        if not noisy and total > 0.0 and seg < P._REL_CHANGE * total:
            return FinitenessVerdict(
                ALMOST_SURELY_FINITE, P.REASON_ZERO_TREND_CONVERGES, float(total)
            )
        if upper > 1e290:
            break
    avg = np.divide(increments[-5:], widths[-5:])
    if len(avg) == 5 and 0.0 < avg.min() and avg.max() <= P._LEVEL_SPREAD * avg.min():
        return FinitenessVerdict(INFINITE, P.REASON_ZERO_TREND_DIVERGES)
    return None


class TestBatchedFinitenessProbe:
    """classify_finiteness takes the first pass of 16 doubling windows
    from one integrand call and refines only the windows that miss their
    tolerance, so its verdicts and integral values are those of one
    integrate call per window."""

    # Normal(3, 0.05) at delta = 0.1 has a window that integrate refines
    LAWS = [Normal(), Normal(mu=2.0, sigma=0.5), Normal(mu=3.0, sigma=0.05),
            Gumbel(), ParetoUnit(),
            Dagum(b=1.0, q=2.0), Dagum(b=3.0, q=0.5), Uniform(), Uniform(lo=-1.0, hi=3.0),
            Exponential(), Exponential(rate=3.0)]

    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.spec_string())
    @pytest.mark.parametrize("delta", [0.1, 0.5, 2.0, 5.0])
    def test_matches_one_integrate_call_per_window(self, dist, delta):
        cfg = LdmConfig(dist, c=0.0, delta=delta)
        want = _per_window_zero_trend(cfg)
        if want is None:
            with pytest.raises(UndecidedError):
                classify_finiteness(cfg)
        else:
            assert classify_finiteness(cfg) == want

    def test_windows_share_integrand_calls(self, monkeypatch):
        calls = []
        for name in ("first_passes", "integrate"):
            real = getattr(probability, name)
            monkeypatch.setattr(
                probability, name,
                lambda *a, real=real, name=name, **kw: calls.append(name) or real(*a, **kw),
            )
        v = classify_finiteness(ldm("exp", 0.0, 0.5))
        assert v.reason == probability.REASON_ZERO_TREND_DIVERGES
        # 42 doubling windows, which took one integrate call each before
        assert calls.count("first_passes") == 3
        assert calls.count("integrate") <= 2

    def test_window_is_refined_exactly_when_its_gauge_misses_seg_tol(self, monkeypatch):
        # Normal(3, 0.05) at delta = 0.1: the first window [0, 4] has a
        # first-pass gauge far above the relative floor, so tol sets its
        # seg_tol = tol / 2 exactly.  At seg_tol == gauge the first pass
        # is kept, one ulp below integrate refines the window.
        dist = Normal(mu=3.0, sigma=0.05)
        (_,), (gauge,) = probability.first_passes(
            probability._finiteness_integrand(dist, 0.1), [0.0], [4.0]
        )
        assert gauge > 1e-10
        windows = []
        real = probability.integrate
        monkeypatch.setattr(
            probability, "integrate",
            lambda fn, lo, hi, tol, **kw: windows.append((lo, hi)) or real(fn, lo, hi, tol, **kw),
        )
        cfg = LdmConfig(dist, c=0.0, delta=0.1)
        classify_finiteness(cfg, tol=2.0 * gauge)
        assert (0.0, 4.0) not in windows
        classify_finiteness(cfg, tol=2.0 * np.nextafter(gauge, 0.0))
        assert (0.0, 4.0) in windows


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

    def test_pareto_at_unit_trend(self):
        for delta in (-0.5, 0.0, 1.0, 2.5):
            for n in (2, 10, 100, 1000, 10**4):
                res = p_n_delta(ldm("pareto1", 1.0, delta), n)
                self._assert_within(res, pareto_p_n_delta(delta, n), (delta, n))

    def test_dagum_at_trend_equal_to_scale(self):
        for q in (0.5, 1.0, 2.0, 3.0):
            for n in (2, 10, 100, 1000, 10**4):
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

    def test_exponential_reference_is_live(self):
        # one frozen value recomputed, and one fresh case at a larger trend
        key = (1e-5, 0.3, None)
        assert _exponential_reference(*key) == pytest.approx(
            EXPONENTIAL_REFERENCE[key], rel=1e-14
        )
        self._assert_within(
            p_delta(ldm("exp", 0.1, -0.5)), _exponential_reference(0.1, -0.5), "exp"
        )


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


class TestLogProduct:
    """The head-plus-tail engine against the direct sum of every factor."""

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
        dist = parse_spec(spec)
        y = dist.quantile(np.array([0.01, 0.3, 0.7, 0.99]))
        tail = _TailLedger(budget, float(y.min()))
        got = _log_product(dist, y, c, m, tail)
        want = np.array([
            math.fsum(dist.log_cdf(v + c * np.arange(1, m + 1))) for v in y
        ])
        return np.abs(got - want), want, tail

    @pytest.mark.parametrize("spec,c,m", CASES)
    def test_remainder_within_bound(self, spec, c, m):
        err, want, tail = self._run(spec, c, m, 1e-9)
        assert tail.head + 64 <= m  # the tail was used
        assert tail.eps <= 1e-9
        assert np.all(err <= tail.eps + 1e-13 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("spec,c,m", [
        ("gumbel", 1.0, 1000),
        ("exp:rate=0.25", 0.02, 4000),
        ("pareto1", 0.5, 2000),
        ("dagum:b=3,q=0.5", 0.2, 5000),
    ])
    def test_bound_is_not_vacuous(self, spec, c, m):
        # a loose budget starts the tail at the first factor, where the
        # remainder is large enough to compare with its bound
        err, _, tail = self._run(spec, c, m, 1.0)
        assert tail.head == 0
        assert err.max() <= tail.eps <= 100.0 * err.max()

    @pytest.mark.parametrize("spec,c,m", [
        ("gumbel", 1.0, 1000),
        ("normal", 1.0, 1000),
        ("exp:rate=0.25", 0.02, 4000),
    ])
    def test_sixth_order_term_is_applied(self, spec, c, m):
        # where g^(5) is monotone over the tail, leaving out the term
        # (c^5/30240) D g^(5) would leave an error about as large as the
        # bound; with it, the error is about the next, eighth-order term
        err, _, tail = self._run(spec, c, m, 1.0)
        assert tail.head == 0
        assert err.max() <= 0.1 * tail.eps
