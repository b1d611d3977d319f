import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate

from driftrecords.closed_form import (
    dagum_p_n0,
    dagum_p_n0_asymptotic,
    dagum_p_n_delta_eq_c,
    dagum_p_n_delta_eq_c_asymptotic,
    gumbel_l_inf,
    gumbel_l_inf_argmax,
    gumbel_p_delta,
    gumbel_p_n_delta,
    pareto_l_n,
    pareto_p_n_delta,
)
from driftrecords.errors import DriftRecordsError


@pytest.mark.parametrize("call", [
    lambda v: gumbel_p_n_delta(v, 0.0, 5),
    lambda v: gumbel_p_n_delta(1.0, v, 5),
    lambda v: gumbel_p_delta(v, 0.0),
    lambda v: gumbel_p_delta(1.0, v),
    lambda v: gumbel_l_inf(v, 0.5),
    lambda v: gumbel_l_inf(1.0, v),
    lambda v: gumbel_l_inf_argmax(v),
    lambda v: dagum_p_n0(v, 5),
    lambda v: dagum_p_n0_asymptotic(v, 5),
    lambda v: dagum_p_n_delta_eq_c(v, 5),
    lambda v: dagum_p_n_delta_eq_c_asymptotic(v, 5),
    lambda v: pareto_p_n_delta(v, 5),
    lambda v: pareto_l_n(v, 5),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_trend_threshold_or_shape_is_rejected(call, value):
    with pytest.raises(DriftRecordsError, match="must be finite"):
        call(value)

# 50-digit evaluations of the analytic expressions, frozen as oracles.
GUMBEL_P_N = {
    (1.0, 0.0, 5): 0.6364086465588308,
    (math.log(2.0), 0.0, 5): 0.5161290322580645,
    (-0.5, 1.0, 10): 0.0016234435621916821,
    (-2.0, -1.0, 50): 6.4607508447325415e-43,
    (0.25, 2.0, 100): 0.03701582162453133,
    (0.0, 0.5, 20): 0.03093513433046717,
    (4.0, -2.0, 2): 0.9975273768433652,
    (-0.001, 0.0, 1000): 0.0005822677922431328,
}

GUMBEL_L_INF = {
    (1.0, -0.5): 1.0341145391766215,
    (0.5, 2.0): 0.2191829771284449,
    (2.0, -1.0): 1.0043090840701094,
    (0.5, 350.0): 1.6371126895661785e-152,
    (0.3, -0.2): 1.090447479921987,
    (1.5, 0.75): 0.9138743603013634,
}

DAGUM_P_N0 = {
    (2.5, 50): 0.03235623032234309,
    (0.7, 100): 0.08546531039518972,
    (1.3, 9): 0.23114157353514753,
    (0.5, 1000): 0.048697129242076836,
}

DAGUM_P_EQ_C = {
    (2.0, 10): 0.14163790415395444,
    (0.4, 50): 0.1536728939874356,
    (1.0, 25): 0.10070565581918846,
    (3.5, 6): 0.1936437851565786,
}

# Ground truth for the consecutive-record dependence index of the unit
# Pareto law with unit trend, from direct numerical integration of the
# joint- and single-record integrals at tolerance 1e-11.
PARETO_L_N = {
    (-2.0, 5): 1.4839891090193094,
    (-0.5, 5): 1.513865758857438,
    (0.5, 5): 1.3212991812278136,
    (3.0, 5): 0.5840926061855263,
    (-0.5, 10): 2.0026991011709923,
    (1.0, 10): 1.2399157899778153,
    (2.0, 7): 0.7427067230538074,
    (0.25, 20): 2.431603595345155,
    (4.5, 12): 0.621942011374513,
    (-3.0, 8): 1.73150932247818,
}


class TestGumbelProbability:
    @pytest.mark.parametrize("key", sorted(GUMBEL_P_N), ids=str)
    def test_oracle_values(self, key):
        c, delta, n = key
        assert gumbel_p_n_delta(c, delta, n) == pytest.approx(
            GUMBEL_P_N[key], rel=1e-12
        )

    def test_n1_is_one(self):
        for c in (-1.0, 0.0, 2.0):
            assert gumbel_p_n_delta(c, 5.0, 1) == 1.0

    def test_converges_to_asymptotic_value(self):
        for c in (0.25, 1.0):
            for delta in (-1.0, 0.0, 1.5):
                limit = gumbel_p_delta(c, delta)
                assert gumbel_p_n_delta(c, delta, 20_000) == pytest.approx(
                    limit, abs=1e-4
                )

    def test_asymptotic_examples(self):
        assert gumbel_p_delta(math.log(2.0), 0.0) == pytest.approx(0.5, abs=1e-15)
        assert gumbel_p_delta(0.0, 1.0) == 0.0
        assert gumbel_p_delta(-0.3, -5.0) == 0.0

    def test_monotone_in_n_delta_c(self):
        for n in (2, 3, 10):
            assert gumbel_p_n_delta(1.0, 0.5, n) >= gumbel_p_n_delta(1.0, 0.5, n + 1)
        for delta in (-1.0, 0.0, 1.0):
            assert gumbel_p_n_delta(1.0, delta, 7) >= gumbel_p_n_delta(
                1.0, delta + 0.5, 7
            )
        for c in (-0.5, 0.1, 2.0):
            assert gumbel_p_n_delta(c, 0.5, 7) <= gumbel_p_n_delta(c + 0.5, 0.5, 7)

    def test_extreme_arguments_do_not_overflow(self):
        assert gumbel_p_n_delta(-1.0, 800.0, 10) == 0.0
        assert gumbel_p_delta(1.0, 800.0) == pytest.approx(0.0, abs=1e-300)
        assert 0.0 <= gumbel_p_n_delta(1e-8, 0.0, 100) <= 1.0
        assert gumbel_p_n_delta(0.0, 800.0, 3) == 0.0

    def test_underflow_gives_positive_zero(self):
        got = gumbel_p_n_delta(-800.0, 0.0, 3)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_zero_trend_at_a_nonpositive_threshold(self):
        # 1 / ((n-1) e^delta + 1) at c = 0, delta = -0.5, n = 3
        assert gumbel_p_n_delta(0.0, -0.5, 3) == pytest.approx(
            0.45186276187760605, rel=1e-15
        )

    @pytest.mark.parametrize("c", [1e-20, 1e-16])
    def test_tiny_positive_trend_is_the_zero_trend_limit(self, c):
        # e^(-c) - e^(-nc) cancels to 0 at c = 1e-20, where the value
        # read 1.0, and lost 2e-4 relative at c = 1e-16
        limit = 1.0 / (1.0 + 999.0 * math.exp(0.3))
        assert gumbel_p_n_delta(c, 0.3, 1000) == pytest.approx(limit, rel=1e-12)

    def test_positive_trend_with_an_overflowing_threshold_is_zero(self):
        # e^delta overflows at delta = 800, where the value underflows
        assert gumbel_p_n_delta(1.0, 800.0, 5) == 0.0


class TestGumbelDependence:
    @pytest.mark.parametrize("key", sorted(GUMBEL_L_INF), ids=str)
    def test_oracle_values(self, key):
        c, delta = key
        assert gumbel_l_inf(c, delta) == pytest.approx(GUMBEL_L_INF[key], rel=1e-12)

    def test_zero_threshold_gives_exact_independence(self):
        for c in (0.1, 0.7, 3.0):
            assert gumbel_l_inf(c, 0.0) == 1.0

    def test_continuous_at_zero_threshold(self):
        for c in (0.5, 2.0):
            assert gumbel_l_inf(c, -1e-9) == pytest.approx(1.0, abs=1e-8)
            assert gumbel_l_inf(c, 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_attraction_iff_negative_threshold(self):
        for c in (0.25, 1.0, 4.0):
            assert gumbel_l_inf(c, -0.7) > 1.0
            assert gumbel_l_inf(c, 0.7) < 1.0

    def test_huge_trend_does_not_overflow(self):
        # e^c overflows for c > 709; the index tends to 1 as c grows
        for delta in (0.0, 0.5, -0.5, 400.0):
            got = gumbel_l_inf(800.0, delta)
            assert got == pytest.approx(1.0, abs=1e-12), delta
        assert gumbel_l_inf(1.0, 800.0) == pytest.approx(0.0, abs=1e-300)

    def test_requires_positive_trend(self):
        with pytest.raises(DriftRecordsError):
            gumbel_l_inf(0.0, -0.5)
        with pytest.raises(DriftRecordsError):
            gumbel_l_inf(-1.0, -0.5)

    def test_argmax_requires_positive_trend(self):
        with pytest.raises(DriftRecordsError, match="requires a positive trend"):
            gumbel_l_inf_argmax(-1.0)

    def test_argmax_matches_grid_search(self):
        for c in (0.25, 1.0, 3.0):
            delta_star, max_value = gumbel_l_inf_argmax(c)
            assert delta_star < 0.0
            assert max_value == pytest.approx(
                gumbel_l_inf(c, delta_star), rel=1e-12
            )
            grid = np.linspace(delta_star - 0.5, delta_star + 0.5, 20_001)
            vals = [gumbel_l_inf(c, d) for d in grid]
            assert max_value >= max(vals) - 1e-9
            assert abs(grid[int(np.argmax(vals))] - delta_star) < 1e-3

    def test_argmax_survives_large_trend(self):
        # naive evaluation of the argmax expression overflows near c ~ 400
        delta_star, max_value = gumbel_l_inf_argmax(500.0)
        assert math.isfinite(delta_star) and math.isfinite(max_value)
        assert max_value == pytest.approx(1.0, rel=1e-6)


class TestDagum:
    def test_q1_is_log_over_n_minus_1(self):
        for n in (2, 5, 100, 10_000):
            assert dagum_p_n0(1.0, n) == pytest.approx(
                math.log(n) / (n - 1), rel=1e-12
            )

    def test_q2_hand_formula(self):
        for n in (3, 10, 250):
            want = 2.0 * (n - 1 - math.log(n)) / (n - 1) ** 2
            assert dagum_p_n0(2.0, n) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("key", sorted(DAGUM_P_N0), ids=str)
    def test_noninteger_oracle_values(self, key):
        q, n = key
        assert dagum_p_n0(q, n) == pytest.approx(DAGUM_P_N0[key], rel=1e-9)

    def test_integer_formula_agrees_with_quadrature(self):
        for q in range(1, 8):
            n = 37
            integral, _ = scipy.integrate.quad(
                lambda y: (y - 1.0) ** (q - 1.0) / y, 1.0, n
            )
            want = q / (n - 1.0) ** q * integral
            assert dagum_p_n0(float(q), n) == pytest.approx(want, rel=1e-10)

    def test_zero_threshold_asymptotics(self):
        # three regimes: heavy shape, boundary, light shape
        for q in (0.5, 2.0, 3.0):
            got = dagum_p_n0(q, 2_000_000)
            want = dagum_p_n0_asymptotic(q, 2_000_000)
            assert got == pytest.approx(want, rel=0.02)
        got = dagum_p_n0(1.0, 10_000_000)
        want = dagum_p_n0_asymptotic(1.0, 10_000_000)
        assert got == pytest.approx(want, rel=0.02)

    @pytest.mark.parametrize("key", sorted(DAGUM_P_EQ_C), ids=str)
    def test_threshold_equal_trend_oracle_values(self, key):
        q, n = key
        assert dagum_p_n_delta_eq_c(q, n) == pytest.approx(
            DAGUM_P_EQ_C[key], rel=1e-9
        )

    def test_threshold_equal_trend_heavy_shape_decay_rate(self):
        # for q = 1/2 the probability decays exactly like n^{-1/2}
        got = dagum_p_n_delta_eq_c(0.5, 10**5)
        assert got == pytest.approx(10**-2.5, rel=0.05)

    def test_threshold_equal_trend_asymptotics_heavy_shape(self):
        # for shape < 1 the limit constant differs from the zero-threshold
        # one: Gamma(2q)Gamma(1-q)/Gamma(q) instead of q Gamma(q)Gamma(1-q)
        q = 0.4
        n = 4_000_000
        want = dagum_p_n_delta_eq_c_asymptotic(q, n)
        got = dagum_p_n_delta_eq_c(q, n)
        assert got == pytest.approx(want, rel=0.02)
        ratio = dagum_p_n_delta_eq_c_asymptotic(q, n) / dagum_p_n0_asymptotic(q, n)
        want_ratio = math.gamma(2 * q) / (q * math.gamma(q) ** 2)
        assert ratio == pytest.approx(want_ratio, rel=1e-12)

    def test_small_n_domain(self):
        with pytest.raises(DriftRecordsError):
            dagum_p_n_delta_eq_c(1.0, 2)
        with pytest.raises(DriftRecordsError):
            dagum_p_n0(1.0, 1)
        with pytest.raises(DriftRecordsError):
            dagum_p_n0(-1.0, 5)

    @pytest.mark.parametrize("fn", [
        dagum_p_n0, dagum_p_n0_asymptotic, dagum_p_n_delta_eq_c,
        dagum_p_n_delta_eq_c_asymptotic,
    ], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("q", [0.0, -1.0])
    def test_shape_must_be_positive(self, fn, q):
        with pytest.raises(DriftRecordsError, match="^q must be positive and finite"):
            fn(q, 5)

    def test_threshold_equal_trend_asymptotics_at_unit_shape(self):
        for n in (3, 100, 10**6):
            assert dagum_p_n_delta_eq_c_asymptotic(1.0, n) == math.log(n) / n

    # q = 2 at the n of the benchmark's Dagum anchors, the points where the
    # integer-q binomial sum lost everything to cancellation or overflowed,
    # and points where the peak of (y-1)^(q-1) is narrower than any
    # quadrature panel on [1, n]
    P_N0_POINTS = [(2.0, n) for n in (2, 10, 100, 1000, 10_000)] + [
        (50.0, 2), (50.0, 3), (400.0, 3), (400.0, 10), (400.5, 10),
        (1e4, 10_000), (0.3, 7), (1.5, 10_000), (0.9, 2_000_000),
    ]
    EQ_C_POINTS = [
        (50.0, 3), (400.0, 3), (200.5, 10), (1e4, 10_000), (0.3, 7),
        (0.5, 100), (1.5, 20), (3.0, 2_000_000),
    ]

    @pytest.mark.parametrize("q, n", P_N0_POINTS, ids=str)
    def test_zero_threshold_matches_mpmath(self, q, n):
        # the integral is q int_0^1 t^(q-1) / (1 + (n-1) t) dt, which is
        # 2F1(1, q; q+1; 1-n)
        with mp.workdps(40):
            want = float(mp.hyp2f1(1, q, q + 1, 1 - n))
        assert dagum_p_n0(q, n) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q, n", EQ_C_POINTS, ids=str)
    def test_threshold_equal_trend_matches_mpmath(self, q, n):
        # q (n-1)^q int_0^1 t^(2q-1) (1 + (n-2) t)^(-q-1) dt, which is
        # (n-1)^q / 2 * 2F1(q+1, 2q; 2q+1; 2-n)
        with mp.workdps(40):
            q_ = mp.mpf(q)
            want = float(
                mp.power(n - 1, q_) / 2 * mp.hyp2f1(q_ + 1, 2 * q_, 2 * q_ + 1, 2 - n)
            )
        assert dagum_p_n_delta_eq_c(q, n) == pytest.approx(want, rel=1e-12)


class TestParetoProbability:
    def test_unit_trend_zero_threshold_is_log_over_n_minus_1(self):
        for n in (2, 7, 1000):
            assert pareto_p_n_delta(0.0, n) == pytest.approx(
                math.log(n) / (n - 1), rel=1e-12
            )

    def test_threshold_one_collapses(self):
        # delta = n-1 sits exactly on the removable singularity
        assert pareto_p_n_delta(1.0, 2) == pytest.approx(0.5, rel=1e-12)
        assert pareto_p_n_delta(2.0, 3) == pytest.approx(0.25, rel=1e-12)
        assert pareto_p_n_delta(9.0, 10) == pytest.approx(1.0 / 18.0, rel=1e-12)

    def test_removable_singularity_window_is_smooth(self):
        n = 10
        inside = pareto_p_n_delta(9.0 + 1e-6, n)
        outside = pareto_p_n_delta(9.0 + 1e-4, n)
        limit = 1.0 / (2.0 * (n - 1))
        assert inside == pytest.approx(limit, abs=1e-6)
        assert outside == pytest.approx(limit, abs=1e-4)

    def test_against_direct_integral(self):
        # p_{n,delta} = integral of prod F(x + i - delta) f(x)
        for delta, n in [(-1.0, 4), (0.5, 6), (2.0, 3)]:
            def integrand(x):
                out = x**-2.0
                for i in range(1, n):
                    out *= np.clip(1.0 - 1.0 / (x + i - delta), 0.0, 1.0)
                return out

            want, _ = scipy.integrate.quad(integrand, 1.0, np.inf, limit=300)
            assert pareto_p_n_delta(delta, n) == pytest.approx(want, rel=1e-8)


class TestParetoDependence:
    @pytest.mark.parametrize("key", sorted(PARETO_L_N), ids=str)
    def test_oracle_values(self, key):
        delta, n = key
        assert pareto_l_n(delta, n) == pytest.approx(PARETO_L_N[key], rel=1e-6)

    def test_attraction_for_negative_thresholds(self):
        for n in (5, 10, 50):
            assert pareto_l_n(-1.0, n) > 1.0

    def test_repulsion_for_large_thresholds(self):
        for n in (5, 10, 50):
            assert pareto_l_n(float(n), n) < 1.0

    def test_interpolation_windows_are_continuous(self):
        # the exact expression has removable singularities at n/2, n-1, n
        # and n+1; values just inside and outside each window must agree
        n = 10
        for s in (5.0, 9.0, 10.0, 11.0):
            inside = pareto_l_n(s + 9e-4, n)
            outside = pareto_l_n(s + 11e-4, n)
            assert inside == pytest.approx(outside, rel=1e-4)
            at = pareto_l_n(s, n)
            assert at == pytest.approx(inside, rel=1e-3)

    def test_threshold_one_window(self):
        n = 12
        at = pareto_l_n(1.0, n)
        near = pareto_l_n(1.0 + 2e-5, n)
        assert at == pytest.approx(near, rel=1e-3)

    def test_large_threshold_limit(self):
        # l_n tends to 1 - log 2 as the threshold grows, at fixed n
        limit = 1.0 - math.log(2.0)
        assert pareto_l_n(1e5, 10) == pytest.approx(limit, abs=2e-3)
        assert pareto_l_n(1e6, 10) == pytest.approx(limit, abs=2e-4)

    def test_small_threshold_limit(self):
        # and to 1 as the threshold falls, again at fixed n
        assert pareto_l_n(-1e4, 10) == pytest.approx(1.0, abs=2e-3)

    def test_growth_rate_in_n(self):
        # at fixed threshold the index grows like n / (log n)^2, so the
        # doubling ratio approaches 2 (log n / log 2n)^2
        for delta in (0.5, -1.0):
            n = 10_000
            ratio = pareto_l_n(delta, 2 * n) / pareto_l_n(delta, n)
            want = 2.0 * (math.log(n) / math.log(2 * n)) ** 2
            assert ratio == pytest.approx(want, rel=0.10)

    def test_requires_n_at_least_3(self):
        with pytest.raises(DriftRecordsError):
            pareto_l_n(0.5, 2)
