import math

import numpy as np
import pytest

from driftrecords import (
    DriftRecordsError,
    LdmConfig,
    Normal,
    asymptotic_variance_mc,
    delta_record_flags,
    gaussian_interval,
    parse_spec,
    variance_estimator,
)
from driftrecords._kernels import record_scan
from driftrecords.estimation import _lag_counts_bytes, _lag_counts_packed, _window
from driftrecords.simulate import replicate

LAWS = ["gumbel", "pareto1", "dagum:b=1,q=2", "normal:mu=0.3,sigma=2",
        "uniform:lo=-1,hi=2", "exp:rate=1.5"]


def unpruned_sigma2(ldm, horizon, burn_in, lag_max, reps, seed):
    """asymptotic_variance_mc without its burn-in pruning: the law's own
    quantile on every value and a record scan of the whole row."""
    drift = ldm.c * np.arange(1, burn_in + horizon + 1, dtype=np.float64)
    ind = np.concatenate(replicate(
        seed, reps, burn_in + horizon,
        lambda u: record_scan(ldm.dist.quantile(u) + drift, ldm.delta)[:, burn_in:]))
    lags = np.arange(1, lag_max + 1)
    p = np.count_nonzero(ind) / (reps * horizon)
    r = np.array([np.count_nonzero(ind[:, :-k] & ind[:, k:]) for k in lags])
    r = r / (reps * (horizon - lags))
    return max(p - p * p + 2.0 * float(np.sum(r - p * p)), 0.0)


class TestVarianceEstimator:
    def test_zero_window_is_bernoulli_variance(self):
        rng = np.random.default_rng(0)
        for n in (5, 64, 997):
            bits = rng.random(n) < 0.3
            bits[0] = True
            est = variance_estimator(bits, m=0)
            p_hat = bits.mean()
            assert est.sigma2 == pytest.approx(p_hat * (1.0 - p_hat), abs=1e-12)
            assert est.m == 0
            assert est.gammas.shape == (1,)

    def test_constant_flags_have_zero_variance(self):
        est = variance_estimator([True] * 40)
        assert est.sigma2 == 0.0
        assert not est.floored

    def test_alternating_flags_floor_at_zero(self):
        # gamma(0) = 1/4 and gamma(1) is near -1/4, so the m = 1 window
        # sums to a negative value and the estimate clamps to zero
        y = np.zeros(16)
        y[0::2] = np.arange(1, 9, dtype=np.float64)
        fl = delta_record_flags(y, delta=0.0)
        assert fl.flags.tolist() == [True, False] * 8
        est = variance_estimator(fl, m=1)
        assert est.gammas[0] == pytest.approx(0.25)
        assert est.gammas[1] == pytest.approx(-15.0 / 64.0)
        assert est.floored
        assert est.sigma2 == 0.0

    def test_default_window_is_sqrt_of_length(self):
        bits = [True, False, True, True] * 25
        est = variance_estimator(bits)
        assert est.m == 10
        small = variance_estimator([True, False, True])
        assert small.m == 1

    def test_window_bounds_are_enforced(self):
        fl = [True, False] * 5
        with pytest.raises(ValueError):
            variance_estimator(fl, m=6)
        with pytest.raises(ValueError):
            variance_estimator(fl, m=-1)
        variance_estimator(fl, m=5)

    def test_rejects_an_empty_sequence(self):
        # it used to return NaN after numpy's "Mean of empty slice" warning
        with pytest.raises(DriftRecordsError, match="at least one indicator"):
            variance_estimator([])

    def test_gammas_match_direct_autocovariances(self):
        rng = np.random.default_rng(42)
        bits = rng.random(200) < 0.4
        bits[0] = True
        est = variance_estimator(bits, m=7)
        z = bits.astype(np.float64) - bits.mean()
        for k in range(8):
            want = float(z[: 200 - k] @ z[k:]) / 200.0
            assert est.gammas[k] == pytest.approx(want, abs=1e-12)
        want_sigma2 = est.gammas[0] + 2.0 * est.gammas[1:].sum()
        assert est.sigma2 == pytest.approx(max(want_sigma2, 0.0), abs=1e-12)

    def test_plain_array_matches_record_flags(self):
        y = np.random.default_rng(7).standard_normal(300) + 0.05 * np.arange(300)
        fl = delta_record_flags(y, delta=0.2)
        plain, wrapped = variance_estimator(fl.flags, m=9), variance_estimator(fl, m=9)
        assert plain.sigma2 == wrapped.sigma2
        np.testing.assert_array_equal(plain.gammas, wrapped.gammas)

    def test_a_float_input_is_left_unchanged(self):
        # the indicators are centred in place, on a copy of their own
        bits = (np.random.default_rng(9).random(500) < 0.3).astype(np.float64)
        before = bits.copy()
        est = variance_estimator(bits, m=5)
        assert bits.tobytes() == before.tobytes()
        assert est.sigma2 == variance_estimator(bits.astype(bool), m=5).sigma2


class TestAsymptoticVarianceMc:
    def test_near_independent_indicators_give_bernoulli_variance(self):
        # at zero threshold the consecutive-record dependence index of
        # the Gumbel model is exactly one, so the long-run variance sits
        # close to p(1 - p)
        ldm = LdmConfig(parse_spec("gumbel"), c=1.0, delta=0.0)
        sigma2 = asymptotic_variance_mc(
            ldm, horizon=3000, burn_in=1500, lag_max=40, reps=150, seed=10
        )
        p = 1.0 - math.exp(-1.0)
        assert sigma2 == pytest.approx(p * (1.0 - p), abs=0.02)

    def test_negative_threshold_inflates_variance(self):
        # clustered records push the long-run variance above p(1 - p)
        ldm = LdmConfig(parse_spec("gumbel"), c=0.5, delta=-2.0)
        sigma2 = asymptotic_variance_mc(
            ldm, horizon=3000, burn_in=1500, lag_max=40, reps=150, seed=11
        )
        from driftrecords import gumbel_p_delta

        p = gumbel_p_delta(0.5, -2.0)
        assert sigma2 > p * (1.0 - p) + 0.01

    def test_reproducible_and_worker_invariant(self):
        ldm = LdmConfig(parse_spec("gumbel"), c=1.0, delta=0.5)
        kw = dict(horizon=1200, burn_in=600, lag_max=20, reps=60, seed=5)
        a = asymptotic_variance_mc(ldm, **kw)
        b = asymptotic_variance_mc(ldm, **kw)
        c = asymptotic_variance_mc(ldm, workers=4, **kw)
        assert a == b == c

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("c", [1.0, 0.1, 1e-3, 0.0, -0.1])
    @pytest.mark.parametrize("spec", LAWS)
    def test_pruned_burn_in_matches_the_full_maximum(self, spec, c):
        # 24 rows make one block on one worker and two on two; at c = 1
        # and burn_in = 500 nearly the whole burn-in is pruned
        horizon, lag_max, reps, seed = 40, 4, 24, 17
        for delta in (-0.5, 0.0, 0.5):
            ldm = LdmConfig(parse_spec(spec), c=c, delta=delta)
            for burn_in in (0, 1, 2, 500):
                want = unpruned_sigma2(ldm, horizon, burn_in, lag_max, reps, seed)
                for workers in (1, 2):
                    got = asymptotic_variance_mc(
                        ldm, horizon, burn_in, lag_max, reps, seed, workers)
                    assert got == want, (delta, burn_in, workers)

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("burn_in", [0, 1, 2, 60])
    @pytest.mark.parametrize("c", [1.0, 0.1, 1e-3, -0.1])
    @pytest.mark.parametrize("spec", LAWS)
    def test_pruned_rows_keep_their_burn_in_maximum(self, spec, c, burn_in):
        # one row per call, so no other row of a block loosens its cut:
        # a column pruned by mistake shows as soon as it holds the maximum.
        # _window builds its paths in the block it is given, so each call
        # gets a copy of the uniforms.  With no burn-in the window is the
        # whole path, and its first column is its own maximum
        dist, rows = parse_spec(spec), 400
        drift = c * np.arange(1, burn_in + 6, dtype=np.float64)
        u = np.random.default_rng(23).random((rows, drift.shape[0]))
        full = dist.quantile(u) + drift
        start = max(burn_in, 1)
        want = full[:, :start].max(axis=1)
        got = [_window(dist, drift, burn_in, row[None].copy())[0, 0] for row in u]
        assert np.array(got).tobytes() == want.tobytes()
        whole = _window(dist, drift, burn_in, u.copy())
        assert whole[:, 0].tobytes() == want.tobytes()
        assert whole[:, 1:].tobytes() == full[:, start:].tobytes()

    @pytest.mark.bit_identity
    @pytest.mark.skipif(not hasattr(np, "bitwise_count"), reason="numpy < 2 has no bitwise_count")
    @pytest.mark.parametrize("horizon", [1, 2, 63, 64, 65, 127, 128, 129, 640, 4000])
    def test_packed_lag_counts_match_the_byte_wise_counts(self, horizon):
        # horizons of 0, 1 and 63 modulo the 64 flags of a word; two
        # adjacent all-one rows show any pair that crosses rows, and an
        # all-zero row any stray bit of the padding
        density = np.array([1.0, 1.0, 0.0, 0.08, 0.5, 1.0, 0.0])
        ind = np.random.default_rng(horizon).random((7, horizon)) < density[:, None]
        for lag_max in {0, 1, 63, 64, 65, 128, horizon - 1}:
            if lag_max < horizon:
                ones, pairs = _lag_counts_packed(ind, lag_max)
                want_ones, want_pairs = _lag_counts_bytes(ind, lag_max)
                assert (ones, pairs) == (want_ones, want_pairs), lag_max

    def test_burn_in_takes_quantiles_only_where_the_maximum_can_fall(self, monkeypatch):
        points = []
        quantile = Normal.quantile

        def counted(self, u, out=None):
            points.append(np.size(u))
            return quantile(self, u, out=out)

        monkeypatch.setattr(Normal, "quantile", counted)
        ldm = LdmConfig(Normal(), c=0.1, delta=0.5)
        horizon, burn_in, reps = 100, 2000, 10
        asymptotic_variance_mc(ldm, horizon, burn_in, lag_max=5, reps=reps)
        # about 50 of the 2000 burn-in values of a row can be its maximum
        assert reps * (horizon + 1) < sum(points) < reps * (horizon + 1 + burn_in // 10)

    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self):
        ldm = LdmConfig(parse_spec("gumbel"), c=1.0, delta=0.0)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            asymptotic_variance_mc(ldm, horizon=100, burn_in=10, lag_max=5,
                                   reps=4, seed=None)

    def test_stable_under_longer_lag_window(self):
        ldm = LdmConfig(parse_spec("gumbel"), c=1.0, delta=0.0)
        kw = dict(horizon=3000, burn_in=1500, reps=120, seed=6)
        short = asymptotic_variance_mc(ldm, lag_max=30, **kw)
        long_ = asymptotic_variance_mc(ldm, lag_max=60, **kw)
        assert long_ == pytest.approx(short, rel=0.05)

    def test_stable_under_longer_burn_in(self):
        ldm = LdmConfig(parse_spec("gumbel"), c=1.0, delta=0.0)
        kw = dict(horizon=3000, lag_max=30, reps=120, seed=7)
        a = asymptotic_variance_mc(ldm, burn_in=1000, **kw)
        b = asymptotic_variance_mc(ldm, burn_in=2000, **kw)
        assert b == pytest.approx(a, abs=0.02)

    def test_rejects_horizon_not_exceeding_lag_window(self):
        ldm = LdmConfig(parse_spec("gumbel"), c=1.0, delta=0.0)
        with pytest.raises(ValueError):
            asymptotic_variance_mc(ldm, horizon=50, lag_max=50, reps=2)

    def test_rejects_negative_burn_in(self):
        # a negative burn-in used to slice indicators from the end of
        # the path and divide by the full horizon
        ldm = LdmConfig(parse_spec("gumbel"), c=1.0, delta=0.0)
        with pytest.raises(ValueError, match="burn_in"):
            asymptotic_variance_mc(ldm, horizon=400, burn_in=-395, lag_max=5, reps=2)


class TestGaussianInterval:
    def test_published_example(self):
        lo, hi = gaussian_interval(69, 17.0 / 69.0, 0.337, 0.95)
        assert lo == pytest.approx(7.54, abs=0.02)
        assert hi == pytest.approx(26.45, abs=0.02)

    def test_interquartile_width(self):
        n, sigma2 = 200, 0.21
        lo, hi = gaussian_interval(n, 0.4, sigma2, 0.5)
        want = 2.0 * 0.6744897501960817 * math.sqrt(n * sigma2)
        assert hi - lo == pytest.approx(want, rel=1e-9)

    def test_centered_on_expected_count(self):
        lo, hi = gaussian_interval(100, 0.3, 0.2, 0.9)
        assert (lo + hi) / 2.0 == pytest.approx(30.0, abs=1e-9)

    def test_degenerate_variance_collapses_the_interval(self):
        lo, hi = gaussian_interval(50, 0.2, 0.0, 0.99)
        assert lo == hi == pytest.approx(10.0)

    def test_wider_at_higher_confidence(self):
        args = (80, 0.35, 0.25)
        w = [
            gaussian_interval(*args, level)[1] - gaussian_interval(*args, level)[0]
            for level in (0.5, 0.8, 0.95, 0.999)
        ]
        assert w == sorted(w)

    def test_rejects_bad_level_or_variance(self):
        with pytest.raises(ValueError):
            gaussian_interval(10, 0.5, 0.2, 0.0)
        with pytest.raises(ValueError):
            gaussian_interval(10, 0.5, 0.2, 1.0)
        with pytest.raises(ValueError):
            gaussian_interval(10, 0.5, -0.1, 0.9)

    def test_rejects_non_finite_inputs(self):
        with pytest.raises(ValueError):
            gaussian_interval(10, math.nan, 0.2, 0.9)
        with pytest.raises(ValueError):
            gaussian_interval(10, 0.5, math.nan, 0.9)
