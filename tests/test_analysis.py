import math

import numpy as np
import pytest

from driftrecords import (
    DriftRecordsError,
    TimeSeries,
    analyze,
    bootstrap_histogram,
    delta_record_flags,
    load_series,
    ols_fit,
    running_rate,
    synthetic_temperature_series,
)
from driftrecords import _kernels, analysis, replication_rng
from driftrecords._special import norm_quantile
from driftrecords.analysis import FIXTURE_SEED

from conftest import FIXTURE_CSV


def write(tmp_path, text, name="series.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadSeries:
    def test_round_trips_the_fixture(self, fixture_series):
        assert len(fixture_series) == 69
        assert fixture_series.t[0] == 1951
        assert fixture_series.t[-1] == 2019

    def test_reports_header_line(self, tmp_path):
        p = write(tmp_path, "year,value\n1951,1.0\n")
        with pytest.raises(DriftRecordsError, match="line 1.*header"):
            load_series(p)

    def test_reports_field_count_with_line_number(self, tmp_path):
        p = write(tmp_path, "t,value\n1951,1.0\n1952,2.0,9\n")
        with pytest.raises(DriftRecordsError, match="line 3: expected 2 fields"):
            load_series(p)

    def test_reports_bad_year(self, tmp_path):
        p = write(tmp_path, "t,value\n19x1,1.0\n")
        with pytest.raises(DriftRecordsError, match="line 2.*not an integer"):
            load_series(p)

    def test_reports_bad_value(self, tmp_path):
        p = write(tmp_path, "t,value\n1951,1.0\n1952,abc\n")
        with pytest.raises(DriftRecordsError, match="line 3.*not a number"):
            load_series(p)

    def test_rejects_non_finite_values(self, tmp_path):
        p = write(tmp_path, "t,value\n1951,nan\n")
        with pytest.raises(DriftRecordsError, match="line 2.*not finite"):
            load_series(p)
        p = write(tmp_path, "t,value\n1951,inf\n", name="inf.csv")
        with pytest.raises(DriftRecordsError, match="not finite"):
            load_series(p)

    def test_rejects_duplicate_year_with_line_number(self, tmp_path):
        p = write(tmp_path, "t,value\n1951,1.0\n1951,2.0\n")
        with pytest.raises(DriftRecordsError, match="line 3: duplicate year 1951"):
            load_series(p)

    def test_rejects_decreasing_years(self, tmp_path):
        p = write(tmp_path, "t,value\n1952,1.0\n1951,2.0\n")
        with pytest.raises(DriftRecordsError, match="line 3.*increasing order"):
            load_series(p)

    def test_skips_blank_rows(self, tmp_path):
        p = write(tmp_path, "t,value\n1951,1.0\n\n  \n1952,2.0\n")
        ts = load_series(p)
        assert ts.t.tolist() == [1951, 1952]
        assert ts.value.tolist() == [1.0, 2.0]

    def test_rejects_empty_and_header_only_files(self, tmp_path):
        with pytest.raises(DriftRecordsError, match="empty"):
            load_series(write(tmp_path, ""))
        with pytest.raises(DriftRecordsError, match="no data rows"):
            load_series(write(tmp_path, "t,value\n", name="h.csv"))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises((DriftRecordsError, OSError)):
            load_series(tmp_path / "absent.csv")


class TestTimeSeries:
    def test_sorts_out_of_order_rows(self):
        ts = TimeSeries(t=[3, 1, 2], value=[30.0, 10.0, 20.0])
        assert ts.t.tolist() == [1, 2, 3]
        assert ts.value.tolist() == [10.0, 20.0, 30.0]

    def test_rejects_duplicate_times(self):
        with pytest.raises(ValueError, match="duplicate"):
            TimeSeries(t=[1, 1, 2], value=[1.0, 2.0, 3.0])

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="position 2"):
            TimeSeries(t=[1, 2, 3], value=[1.0, math.nan, 3.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries(t=[1, 2], value=[1.0])

    @pytest.mark.parametrize("t, position", [
        ([1.5, 2.7, 3.9], 1),
        ([1.0, 1.5, 3.0], 2),
        ([1.0, math.nan, 3.0], 2),
        ([1.0, 2.0, -math.inf], 3),
        ([1.0, 2.0, 1e300], 3),
    ])
    def test_rejects_times_that_are_not_integers(self, t, position):
        with pytest.raises(DriftRecordsError, match=f"time at position {position} "):
            TimeSeries(t=t, value=[1.0, 2.0, 3.0])

    def test_accepts_integral_float_times(self):
        ts = TimeSeries(t=np.array([1952.0, 1951.0, -3.0]), value=[2.0, 1.0, 0.0])
        assert ts.t.dtype == np.int64
        assert ts.t.tolist() == [-3, 1951, 1952]


class TestOlsFit:
    def test_recovers_an_exact_line(self):
        t = np.arange(2000, 2010)
        ts = TimeSeries(t=t, value=2.0 * t + 1.0)
        fit = ols_fit(ts)
        assert fit.beta1 == pytest.approx(2.0, abs=1e-10)
        assert fit.beta0 == pytest.approx(1.0, abs=1e-7)
        assert np.max(np.abs(fit.residuals)) < 1e-9
        assert fit.adj_r2 == pytest.approx(1.0)
        assert math.isinf(fit.t_stats[1])

    def test_residuals_sum_to_zero(self, fixture_series):
        fit = ols_fit(fixture_series)
        assert abs(fit.residuals.sum()) < 1e-9

    def test_row_order_does_not_matter(self, fixture_series):
        fit = ols_fit(fixture_series)
        perm = np.random.default_rng(1).permutation(len(fixture_series))
        shuffled = TimeSeries(
            t=fixture_series.t[perm], value=fixture_series.value[perm]
        )
        fit2 = ols_fit(shuffled)
        assert fit2.beta0 == pytest.approx(fit.beta0, rel=1e-12)
        assert fit2.beta1 == pytest.approx(fit.beta1, rel=1e-12)
        assert fit2.adj_r2 == pytest.approx(fit.adj_r2, rel=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            ols_fit(TimeSeries(t=[1, 2], value=[1.0, 2.0]))

    def test_fixture_matches_calibration_targets(self, fixture_series):
        fit = ols_fit(fixture_series)
        assert abs(fit.beta1 - 0.0476) < 2.0 * fit.stderr1
        assert fit.adj_r2 == pytest.approx(0.2769, abs=0.06)
        assert fit.stderr1 == pytest.approx(0.00915, abs=0.003)


class TestAnalyze:
    def test_fixture_report(self, fixture_series):
        rep = analyze(fixture_series, delta=-1.0)
        assert rep.n == 69
        assert rep.delta == -1.0
        assert 12 <= rep.count <= 22
        assert rep.record_count == 7
        assert rep.p_hat == pytest.approx(rep.count / 69.0)
        assert rep.m == 8
        assert rep.sigma2_tilde == pytest.approx(0.337, abs=0.05)
        lo, hi = rep.interval
        assert lo < rep.count < hi
        assert len(rep.rate_path) == 69
        assert rep.rate_path[-1] == pytest.approx(rep.p_hat)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, -0.0, 0.5])
    def test_scans_each_threshold_once(self, fixture_series, monkeypatch, delta):
        # the rate path comes from the flags at delta, and at delta = 0
        # those flags also give the plain record count
        scans = []
        scan = _kernels.record_scan

        def counted(y, d):
            scans.append(d)
            return scan(y, d)

        want_rate = running_rate(fixture_series.value, delta)
        want_records = int(np.sum(delta_record_flags(fixture_series.value, 0.0).flags))
        monkeypatch.setattr(_kernels, "record_scan", counted)
        rep = analyze(fixture_series, delta)
        assert len(scans) == (1 if delta == 0.0 else 2)
        assert rep.rate_path.tobytes() == want_rate.tobytes()
        assert rep.record_count == want_records

    def test_variance_window_stability_on_fixture(self, fixture_series):
        vals = [analyze(fixture_series, -1.0, m=m).sigma2_tilde for m in (6, 7, 8)]
        for a in vals:
            for b in vals:
                assert abs(a - b) <= 0.05

    def test_shifting_values_changes_nothing(self, fixture_series):
        base = analyze(fixture_series, delta=-1.0)
        shifted = analyze(
            TimeSeries(t=fixture_series.t, value=fixture_series.value + 37.5),
            delta=-1.0,
        )
        assert shifted.count == base.count
        assert shifted.sigma2_tilde == pytest.approx(base.sigma2_tilde, abs=1e-12)
        assert shifted.interval == pytest.approx(base.interval, abs=1e-9)
        assert shifted.fit.beta1 == pytest.approx(base.fit.beta1, rel=1e-12)

    def test_extreme_thresholds(self, fixture_series):
        assert analyze(fixture_series, delta=1e9).count == 1
        assert analyze(fixture_series, delta=-1e9).count == 69

    def test_flags_are_computed_on_raw_values(self, fixture_series):
        # detrending first would change the counts; the report must not
        rep = analyze(fixture_series, delta=0.0)
        peak = np.maximum.accumulate(fixture_series.value)
        want = 1 + int(np.sum(fixture_series.value[1:] > peak[:-1]))
        assert rep.count == want

    def test_diagnostics_fields(self, fixture_series):
        rep = analyze(fixture_series, delta=-1.0)
        d = rep.diagnostics
        assert abs(d["residual_mean"]) < 1e-9
        assert d["residual_sd"] > 0.0
        assert len(d["residual_acf"]) == 20
        assert all(abs(v) <= 1.0 for v in d["residual_acf"])


class TestBootstrap:
    def test_histogram_accounts_for_every_replication(self, fixture_series):
        fit = ols_fit(fixture_series)
        bs = bootstrap_histogram(fit, fixture_series, -1.0, reps=2000, seed=3)
        assert bs.histogram.sum() == 2000
        assert bs.histogram[0] == 0
        assert bs.q025 <= bs.mean <= bs.q975

    def test_quantiles_match_gaussian_interval_scale(self, fixture_series):
        rep = analyze(fixture_series, delta=-1.0)
        bs = bootstrap_histogram(rep.fit, fixture_series, -1.0, reps=5000, seed=42)
        lo, hi = rep.interval
        assert bs.q025 == pytest.approx(lo, abs=1.5)
        assert bs.q975 == pytest.approx(hi, abs=1.5)

    def test_mean_sits_near_interval_center(self, fixture_series):
        rep = analyze(fixture_series, delta=-1.0)
        bs = bootstrap_histogram(rep.fit, fixture_series, -1.0, reps=5000, seed=42)
        center = 0.5 * (rep.interval[0] + rep.interval[1])
        count_sd = math.sqrt(rep.n * rep.sigma2_tilde)
        assert abs(bs.mean - center) < 4.0 * count_sd

    def test_rejects_a_negative_seed(self, fixture_series):
        fit = ols_fit(fixture_series)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            bootstrap_histogram(fit, fixture_series, -1.0, reps=1000, seed=-1)

    def test_worker_split_is_reproducible(self, fixture_series):
        fit = ols_fit(fixture_series)
        a = bootstrap_histogram(fit, fixture_series, -1.0, reps=1500, seed=9)
        b = bootstrap_histogram(fit, fixture_series, -1.0, reps=1500, seed=9,
                                workers=4)
        np.testing.assert_array_equal(a.histogram, b.histogram)
        assert (a.q025, a.q975, a.mean) == (b.q025, b.q975, b.mean)

    def test_seed_defaults_to_42(self, fixture_series):
        fit = ols_fit(fixture_series)
        a = bootstrap_histogram(fit, fixture_series, -1.0, reps=1000)
        b = bootstrap_histogram(fit, fixture_series, -1.0, reps=1000, seed=42)
        np.testing.assert_array_equal(a.histogram, b.histogram)

    def test_a_perfect_fit_bootstraps_its_trend(self):
        # value = 2t fits with sigma_eps = 0 exactly, so every path is the
        # increasing trend and every observation a record
        t = np.arange(1951, 2020)
        ts = TimeSeries(t=t, value=2.0 * t)
        fit = ols_fit(ts)
        assert fit.sigma_eps == 0.0
        bs = bootstrap_histogram(fit, ts, 0.0, reps=1000, seed=3)
        assert bs.histogram[69] == 1000
        assert bs.q025 == bs.q975 == bs.mean == 69.0

    def test_rejects_small_replication_counts(self, fixture_series):
        fit = ols_fit(fixture_series)
        with pytest.raises(ValueError):
            bootstrap_histogram(fit, fixture_series, -1.0, reps=999, seed=1)


class TestFixtureProvenance:
    def test_regenerating_the_fixture_reproduces_the_csv(self, fixture_series):
        gen = synthetic_temperature_series(seed=FIXTURE_SEED)
        np.testing.assert_array_equal(gen.t, fixture_series.t)
        np.testing.assert_array_equal(gen.value, fixture_series.value)

    def test_other_seeds_differ(self, fixture_series):
        other = synthetic_temperature_series(seed=FIXTURE_SEED + 1)
        assert not np.array_equal(other.value, fixture_series.value)

    @pytest.mark.parametrize("seed", [None, -1, True, 1.5, math.nan, math.inf])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # None used to give a new series on every call, and -1 failed
        # inside numpy without naming the seed
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            synthetic_temperature_series(seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 2**40, FIXTURE_SEED])
    def test_series_is_replication_zero_of_the_engine(self, seed):
        # trend plus sigma times the normal quantile of the uniforms of
        # replication 0, bit for bit, with sigma back-solved as documented
        t = np.arange(1951, 2020)
        n, b1 = len(t), analysis._FIXTURE_BETA1
        r2 = 1.0 - (1.0 - analysis._FIXTURE_ADJ_R2) * (n - 1) / (n - 2)
        dt = t - t.mean()
        sigma = b1 * math.sqrt(float(dt @ dt) * (1.0 - r2) / (r2 * (n - 2)))
        noise = sigma * norm_quantile(replication_rng(seed, 0).random(n))
        want = analysis._FIXTURE_BETA0 + b1 * t.astype(np.float64) + noise
        assert synthetic_temperature_series(seed).value.tobytes() == want.tobytes()

    def test_default_seed_is_the_fixture(self, fixture_series):
        np.testing.assert_array_equal(synthetic_temperature_series().value, fixture_series.value)
