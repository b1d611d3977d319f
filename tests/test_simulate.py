import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftrecords import (
    LdmConfig,
    SimulationConfig,
    asymptotic_variance_mc,
    bootstrap_histogram,
    mc_record_rate,
    ols_fit,
    parse_spec,
    replication_rng,
    simulate_ldm,
    synthetic_temperature_series,
)
from driftrecords import simulate
from driftrecords._kernels import _ROW_SCAN_MIN, BLOCK_VALUES, record_scan
from driftrecords._special import norm_quantile
from driftrecords.simulate import (
    _VECTOR_MAX_N,
    _stream_block,
    replicate,
)


def ldm(spec, c, delta):
    return LdmConfig(parse_spec(spec), c=c, delta=delta)


def config(spec, c, delta, n, reps, seed=0):
    return SimulationConfig(ldm=ldm(spec, c, delta), n=n, replications=reps, seed=seed)


class TestPathGeneration:
    def test_repeating_a_seed_repeats_the_path(self):
        cfg = ldm("gumbel", 0.5, 0.0)
        a = simulate_ldm(cfg, 50, replication_rng(9, 0))
        b = simulate_ldm(cfg, 50, replication_rng(9, 0))
        np.testing.assert_array_equal(a, b)
        c = simulate_ldm(cfg, 50, replication_rng(9, 1))
        assert not np.array_equal(a, c)

    def test_zero_trend_reduces_to_plain_noise(self):
        cfg = ldm("uniform", 0.0, 0.0)
        path = simulate_ldm(cfg, 10_000, replication_rng(3, 0))
        assert path.min() >= 0.0 and path.max() <= 1.0
        assert path.mean() == pytest.approx(0.5, abs=0.02)

    def test_strong_trend_dominates_bounded_noise(self):
        cfg = ldm("uniform", 5.0, 0.0)
        path = simulate_ldm(cfg, 200, replication_rng(4, 0))
        assert np.all(np.diff(path) > 0.0)

    def test_trend_enters_linearly(self):
        base = simulate_ldm(ldm("normal", 0.0, 0.0), 20, replication_rng(11, 0))
        drifted = simulate_ldm(ldm("normal", 2.0, 0.0), 20, replication_rng(11, 0))
        np.testing.assert_allclose(
            drifted - base, 2.0 * np.arange(1, 21), rtol=0, atol=1e-12
        )

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("n", [1, 2, BLOCK_VALUES - 1, BLOCK_VALUES + 1, 3 * BLOCK_VALUES + 5])
    @pytest.mark.parametrize("spec", ["normal:mu=0.3,sigma=2", "gumbel", "pareto1"])
    def test_pieces_match_the_one_shot_path(self, spec, n):
        # the path is filled a piece at a time from one stream; every value
        # keeps the bits of the one-shot quantile of n uniforms plus drift
        cfg = ldm(spec, 0.37, 0.0)
        got = simulate_ldm(cfg, n, replication_rng(5, n))
        u = replication_rng(5, n).random(n)
        want = cfg.dist.quantile(u) + 0.37 * np.arange(1, n + 1, dtype=np.float64)
        assert got.tobytes() == want.tobytes()

    def test_rejects_empty_horizon(self):
        with pytest.raises(ValueError):
            simulate_ldm(ldm("gumbel", 0.0, 0.0), 0, replication_rng(0, 0))


class TestConfigValidation:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            config("gumbel", 0.0, 0.0, 0, 10)

    def test_rejects_bad_replications(self):
        with pytest.raises(ValueError):
            config("gumbel", 0.0, 0.0, 10, 0)

    @pytest.mark.parametrize("field, value", [
        ("n", 10.0), ("n", True), ("replications", 2.5), ("replications", True),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        kwargs = dict(ldm=ldm("gumbel", 0.0, 0.0), n=10, replications=10, seed=0)
        kwargs[field] = value
        with pytest.raises(ValueError, match="must be an integer"):
            SimulationConfig(**kwargs)

    def test_engine_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            mc_record_rate(config("gumbel", 0.0, 0.0, 10, 10), workers=0)


BAD_SEEDS = [None, True, 3.0, 2.5, math.nan, math.inf, "3", -1]


class TestSeedValidation:
    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_config_rejects_a_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            config("gumbel", 0.0, 0.0, 10, 10, seed=seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_engine_rejects_a_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            replicate(seed, 4, 5, lambda u: u)

    def test_numpy_integer_seed_is_accepted(self):
        a = mc_record_rate(config("gumbel", 0.1, 0.0, 30, 20, seed=np.int64(5)))
        b = mc_record_rate(config("gumbel", 0.1, 0.0, 30, 20, seed=5))
        np.testing.assert_array_equal(a.counts, b.counts)


def one_stream_per_row(seed, lo, rows, n):
    u = np.empty((rows, n))
    for i in range(rows):
        u[i] = replication_rng(seed, lo + i).random(n)
    return u


def streamed(seed, lo, rows, n):
    u = np.empty((rows, n))
    _stream_block(seed, lo, u)
    return u


@pytest.mark.bit_identity
class TestVectorizedStreams:
    """`_stream_block`, and the engine's rows longer than its cutoff,
    must give every row exactly the uniforms that replication_rng draws
    for it."""

    # one to five and ten 32-bit entropy words; SeedSequence's pool holds four
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 977, 2**300]

    @pytest.mark.parametrize("seed", SEEDS)
    # the second block holds indices of one and of two 32-bit words
    @pytest.mark.parametrize("lo, rows", [(0, 3), (2**32 - 2, 4)])
    @pytest.mark.parametrize("n", [1, _VECTOR_MAX_N - 1, _VECTOR_MAX_N])
    def test_block_matches_one_stream_per_row(self, seed, lo, rows, n):
        got = streamed(seed, lo, rows, n)
        assert got.tobytes() == one_stream_per_row(seed, lo, rows, n).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**160),
        lo=st.integers(0, 2**64 - 3),
        n=st.integers(1, 40),
    )
    def test_any_seed_and_index(self, seed, lo, n):
        got = streamed(seed, lo, 2, n)
        assert got.tobytes() == one_stream_per_row(seed, lo, 2, n).tobytes()

    # 2000 values per row put 65 rows in a block of the long-row path
    @pytest.mark.parametrize("seed", [0, 2**64 + 5, 2**300])
    @pytest.mark.parametrize("n", [1, _VECTOR_MAX_N, _VECTOR_MAX_N + 1, 2000])
    def test_engine_rows_match_on_both_sides_of_the_cutoff(self, seed, n):
        reps = 300
        for workers in (1, 2):
            got = np.concatenate(replicate(seed, reps, n, lambda u: u, workers))
            assert got.tobytes() == one_stream_per_row(seed, 0, reps, n).tobytes()

    def test_long_rows_are_seeded_in_one_pass(self, monkeypatch):
        calls = {"_pcg_seeds": 0, "replication_rng": 0}

        def counted(name):
            fn = getattr(simulate, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(simulate, name, counted(name))
        # 300 rows of 2000 values make 5 blocks
        replicate(7, 300, 2000, lambda u: None, 2)
        assert calls == {"_pcg_seeds": 1, "replication_rng": 0}


LAWS = ["gumbel", "pareto1", "dagum:b=1,q=2", "normal:mu=0.3,sigma=2",
        "uniform:lo=-1,hi=2", "exp:rate=1.5"]


class TestEngine:
    @pytest.mark.bit_identity
    @pytest.mark.parametrize("spec", LAWS)
    def test_counts_match_one_replication_at_a_time(self, spec):
        # 2**17 values per block: 37 replications of 5000 make 2 blocks of
        # 19 and 18 rows, and 3 blocks of 13, 13 and 11 on 3 workers, so
        # the last block is short, and are scanned row by row; rows one
        # value shorter than the row scan's minimum are scanned as one
        # stack
        reps, seed = 37, 19
        for n in (5000, _ROW_SCAN_MIN - 1):
            cfg = config(spec, 0.01, 0.2, n, reps, seed=seed)
            want_counts, want_last = [], []
            for rep in range(reps):
                x = cfg.ldm.dist.quantile(replication_rng(seed, rep).random(n))
                flags = record_scan(x + 0.01 * np.arange(1, n + 1), 0.2)
                want_counts.append(int(flags.sum()))
                want_last.append(int(np.nonzero(flags)[0][-1]) + 1)
            for workers in (1, 2, 3):
                s = mc_record_rate(cfg, workers)
                assert s.counts.dtype == np.int64
                np.testing.assert_array_equal(s.counts, want_counts)
                assert s.stabilization_fraction == np.mean(2 * np.array(want_last) <= n)

    @pytest.mark.parametrize("n", [7, _VECTOR_MAX_N + 1])
    def test_a_row_is_the_quantile_of_its_uniforms_plus_the_trend(self, n):
        dist, seed, reps = parse_spec("gumbel"), 2**40, 5
        trend = np.linspace(-1.0, 3.0, n)

        def paths(u):
            # the consumers' form: the quantiles taken in the block, the
            # trend added in place into them
            x = dist.quantile(u, out=u)
            x += trend
            return x

        got = np.concatenate(replicate(seed, reps, n, paths, 2))
        want = [dist.quantile(replication_rng(seed, r).random(n)) + trend for r in range(reps)]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 0.5])
    def test_bootstrap_matches_one_replication_at_a_time(self, delta):
        # 1200 paths of 69 values make one block, and two on two workers
        series = synthetic_temperature_series()
        fit = ols_fit(series)
        n, reps, seed = len(series), 1200, 5
        trend = fit.beta0 + fit.beta1 * series.t.astype(np.float64)
        counts = []
        for rep in range(reps):
            x = fit.sigma_eps * norm_quantile(replication_rng(seed, rep).random(n)) + trend
            counts.append(int(record_scan(x, delta).sum()))
        for workers in (1, 2):
            bs = bootstrap_histogram(fit, series, delta, reps, seed, workers)
            np.testing.assert_array_equal(bs.histogram, np.bincount(counts, minlength=n + 1))
            assert bs.mean == np.mean(counts)

    # 400 values per path take the vectorized streams, 700, 600, 740 and
    # 2200 the long-row path; at c = 1, delta = -2 almost every step is a
    # record, and a window of 2101 values is scanned row by row.  A window
    # of 640 values is 10 words of 64 flags, and lags 63, 64, 65 and 128
    # pair flags on both sides of a word boundary and two words apart
    @pytest.mark.bit_identity
    @pytest.mark.parametrize("spec, c, delta, burn_in, horizon, lag_max", [
        ("normal:mu=0.3,sigma=2", 0.05, -0.2, 100, 2100, 8),
        ("normal:mu=0.3,sigma=2", 0.05, -0.2, 100, 300, 8),
        ("normal:mu=0.3,sigma=2", 0.05, -0.2, 300, 400, 8),
        ("normal", 1.0, -2.0, 300, 400, 8),
        ("normal:mu=0.3,sigma=2", 0.05, -0.2, 0, 600, 8),
        ("normal:mu=0.3,sigma=2", 0.05, -0.2, 100, 300, 299),
        ("normal:mu=0.3,sigma=2", 0.05, -0.2, 100, 640, 63),
        ("normal:mu=0.3,sigma=2", 0.05, -0.2, 100, 640, 64),
        ("normal:mu=0.3,sigma=2", 0.05, -0.2, 100, 640, 65),
        ("normal:mu=0.3,sigma=2", 0.05, -0.2, 100, 640, 128),
    ])
    def test_variance_matches_one_replication_at_a_time(
        self, spec, c, delta, burn_in, horizon, lag_max
    ):
        cfg = ldm(spec, c, delta)
        reps, seed, total = 200, 13, burn_in + horizon
        drift = c * np.arange(1, total + 1)
        hits, lagged = 0, np.zeros(lag_max, dtype=np.int64)
        for rep in range(reps):
            x = cfg.dist.quantile(replication_rng(seed, rep).random(total)) + drift
            ind = record_scan(x, delta)[burn_in:]
            hits += int(ind.sum())
            lagged += [np.sum(ind[:-k] & ind[k:]) for k in range(1, lag_max + 1)]
        p = hits / (reps * horizon)
        r = lagged / (reps * (horizon - np.arange(1, lag_max + 1)))
        want = max(p - p * p + 2.0 * float(np.sum(r - p * p)), 0.0)
        for workers in (1, 2, 3):
            got = asymptotic_variance_mc(cfg, horizon, burn_in, lag_max, reps, seed, workers)
            assert type(got) is float and got == want

    def test_blocks_come_back_in_order_and_cover_every_replication(self):
        for workers in (1, 2, 3, 5):
            blocks = replicate(3, 7, 1, lambda u: u[:, 0].tolist(), workers)
            flat = [v for block in blocks for v in block]
            assert flat == [replication_rng(3, r).random() for r in range(7)]

    @pytest.mark.parametrize("reps, n, workers", [
        (200, 20_000, 2), (200, 6000, 2), (20_000, 20, 1), (5, 20, 3), (3, 70_000, 1),
        (2, 2**17 + 1, 1),
    ])
    def test_a_block_is_at_most_one_piece_of_whole_rows(self, reps, n, workers):
        # a block holds whole rows within 2**17 values, and a path longer
        # than that is a block of its own.  Blocks are twice the record
        # scan's pieces (BLOCK_VALUES): a block pays a fixed setup, and
        # simulate_ldm's memory leaves no room for 1 MB pieces
        shapes = replicate(0, reps, n, lambda u: u.shape, workers)
        assert len(shapes) >= workers
        assert sum(rows for rows, _ in shapes) == reps
        assert all(rows * n <= max(2**17, n) for rows, _ in shapes)


class TestRecordRate:
    def test_same_seed_is_bit_reproducible(self):
        a = mc_record_rate(config("gumbel", 0.3, 0.1, 500, 40, seed=12))
        b = mc_record_rate(config("gumbel", 0.3, 0.1, 500, 40, seed=12))
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.mean_rate == b.mean_rate
        assert a.rate_stderr == b.rate_stderr

    def test_worker_count_does_not_change_results(self):
        cfg = config("normal", 0.2, -0.1, 400, 64, seed=7)
        serial = mc_record_rate(cfg, workers=1)
        threaded = mc_record_rate(cfg, workers=4)
        np.testing.assert_array_equal(serial.counts, threaded.counts)
        np.testing.assert_array_equal(serial.standardized, threaded.standardized)
        assert serial.stabilization_fraction == threaded.stabilization_fraction

    def test_summary_invariants(self):
        s = mc_record_rate(config("exp", 0.1, 0.5, 300, 50, seed=1))
        assert np.all(s.counts >= 1)
        assert 0.0 < s.mean_rate <= 1.0
        assert 0.0 <= s.stabilization_fraction <= 1.0
        assert s.standardized.shape == (50,)
        # standardized sample is centered on the sample mean by definition
        assert s.standardized.mean() == pytest.approx(0.0, abs=1e-12)

    def test_first_observation_is_always_a_record(self):
        # threshold above the support span plus trend: nothing after
        # observation one can ever clear the bar
        s = mc_record_rate(config("uniform", 1.0, 2.5, 200, 30, seed=2))
        assert np.all(s.counts == 1)
        assert s.mean_rate == pytest.approx(1.0 / 200.0)
        assert s.stabilization_fraction == 1.0

    def test_one_replication_has_no_spread(self):
        # the sample standard error needs two replications
        one = mc_record_rate(config("gumbel", 0.3, 0.1, 50, 1, seed=4))
        many = mc_record_rate(config("gumbel", 0.3, 0.1, 50, 3, seed=4))
        assert one.rate_stderr == 0.0
        assert one.counts.tolist() == many.counts[:1].tolist()

    def test_mean_rate_tracks_asymptotic_probability(self):
        from driftrecords import gumbel_p_delta

        c = math.log(2.0)
        s = mc_record_rate(config("gumbel", c, 0.0, 4000, 100, seed=3))
        se = max(s.rate_stderr, 1e-12)
        assert abs(s.mean_rate - gumbel_p_delta(c, 0.0)) < 4.0 * se + 1.0 / 4000.0


class TestTotalRecords:
    def test_classical_mean_count_matches_harmonic_number(self):
        n, reps = 1000, 400
        h_n = float(np.sum(1.0 / np.arange(1, n + 1)))
        s = mc_record_rate(config("gumbel", 0.0, 0.0, n, reps, seed=8))
        mean_count = s.counts.mean()
        se = s.counts.std(ddof=1) / math.sqrt(reps)
        assert abs(mean_count - h_n) < 4.0 * se

    def test_distribution_free_when_trend_and_threshold_vanish(self):
        # classical record counts do not depend on the noise law
        n, reps = 800, 300
        a = mc_record_rate(config("uniform", 0.0, 0.0, n, reps, seed=21))
        b = mc_record_rate(config("pareto1", 0.0, 0.0, n, reps, seed=22))
        se = math.hypot(
            a.counts.std(ddof=1) / math.sqrt(reps),
            b.counts.std(ddof=1) / math.sqrt(reps),
        )
        assert abs(a.counts.mean() - b.counts.mean()) < 4.0 * se

    def test_stabilization_separates_finite_from_infinite(self):
        # negative trend, light tail: records stop early
        finite = mc_record_rate(config("normal", -0.5, 0.0, 2000, 200, seed=31))
        assert finite.stabilization_fraction > 0.9
        # positive trend with light tail: records keep arriving
        infinite = mc_record_rate(config("gumbel", 0.5, 0.0, 2000, 200, seed=32))
        assert infinite.stabilization_fraction < 0.1


def clt_sample(cfg, p_ref, workers=1):
    """sqrt(n) * (count/n - p_ref) per replication: the sample that the
    central limit theorem for the record count describes."""
    counts = mc_record_rate(cfg, workers).counts
    return math.sqrt(cfg.n) * (counts / cfg.n - p_ref)


class TestCltSample:
    def test_shape_and_reproducibility(self):
        cfg = config("gumbel", 1.0, 0.0, 1000, 80, seed=13)
        a = clt_sample(cfg, 0.5, workers=1)
        b = clt_sample(cfg, 0.5, workers=3)
        assert a.shape == (80,)
        np.testing.assert_array_equal(a, b)

    def test_centering_uses_the_reference_probability(self):
        cfg = config("gumbel", 1.0, 0.0, 500, 60, seed=14)
        z0 = clt_sample(cfg, 0.0)
        z1 = clt_sample(cfg, 0.25)
        np.testing.assert_allclose(
            z0 - z1, math.sqrt(500) * 0.25 * np.ones(60), rtol=0, atol=1e-9
        )

    def test_sample_mean_near_zero_under_true_reference(self):
        from driftrecords import gumbel_p_delta

        c = math.log(2.0)
        n, reps = 4000, 200
        z = clt_sample(config("gumbel", c, 0.0, n, reps, seed=15),
                       gumbel_p_delta(c, 0.0))
        se = z.std(ddof=1) / math.sqrt(reps)
        assert abs(z.mean()) < 4.0 * se + math.sqrt(n) / n
