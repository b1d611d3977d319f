"""Trend-fitting pipeline for yearly series with record extraction.

Ingest a (year, value) series, fit a linear trend by least squares,
flag threshold records on the raw values (the trend stays in: the
fitted slope plays the role of the per-step drift), estimate the rate
and its long-run variance, and attach a Gaussian interval plus an
optional parametric bootstrap of the record count.
"""
import csv
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import lag_products, record_scan
from ._special import norm_quantile
from .errors import DriftRecordsError, require_finite, require_int
from .estimation import gaussian_interval, variance_estimator
from .records import _rates, delta_record_flags
from .simulate import replicate, replication_rng

FIXTURE_SEED = 165433

_FIXTURE_BETA0 = -62.659
_FIXTURE_BETA1 = 0.0476
_FIXTURE_ADJ_R2 = 0.2769
_FIXTURE_YEAR_LO = 1951
_FIXTURE_YEAR_HI = 2019


@dataclass(frozen=True)
class TimeSeries:
    """Yearly series: integer times, strictly increasing, no missing
    values.  Times may come as integral floats such as 1951.0; a
    fractional, NaN or infinite time is an error, never truncated.

    The constructor sorts rows by t (record flags and regression both
    read the series in time order), so building one from permuted rows
    is allowed; duplicate times are not. Files loaded through
    load_series are additionally required to arrive already ordered,
    with row-numbered errors.
    """

    t: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t)
        if t.dtype.kind == "f":
            # np.abs(t) < 2**63 also fails for NaN
            bad = ~((np.abs(t) < 2.0**63) & (t == np.floor(t)))
            if bad.any():
                idx = int(np.flatnonzero(bad)[0])
                raise DriftRecordsError(
                    f"time at position {idx + 1} is not an integer: {t[idx]}"
                )
        t = np.ascontiguousarray(t, dtype=np.int64)
        v = np.ascontiguousarray(self.value, dtype=np.float64)
        if t.ndim != 1 or v.ndim != 1 or t.shape[0] != v.shape[0]:
            raise DriftRecordsError("t and value must be 1-d arrays of equal length")
        if t.shape[0] == 0:
            raise DriftRecordsError("series is empty")
        if not np.all(np.isfinite(v)):
            idx = int(np.flatnonzero(~np.isfinite(v))[0])
            raise DriftRecordsError(f"non-finite value at position {idx + 1}")
        if np.any(np.diff(t) <= 0):
            order = np.argsort(t, kind="stable")
            t = t[order]
            v = v[order]
            if np.any(np.diff(t) == 0):
                dup = int(t[np.flatnonzero(np.diff(t) == 0)[0]])
                raise DriftRecordsError(f"duplicate time {dup}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "value", v)

    def __len__(self) -> int:
        return int(self.t.shape[0])


@dataclass(frozen=True)
class OlsFit:
    """Simple linear regression fit value = beta0 + beta1 * t + noise.

    Standard errors use the residual variance with n - 2 degrees of
    freedom; sigma_eps is the residual standard deviation on that same
    convention, which the parametric bootstrap reuses.
    """

    beta0: float
    beta1: float
    stderr0: float
    stderr1: float
    t_stats: tuple
    adj_r2: float
    residuals: np.ndarray
    sigma_eps: float


@dataclass(frozen=True)
class AnalysisReport:
    """End-to-end analysis output."""

    n: int
    delta: float
    count: int
    record_count: int
    p_hat: float
    sigma2_tilde: float
    m: int
    sigma2_floored: bool
    level: float
    interval: tuple
    rate_path: np.ndarray
    fit: OlsFit
    diagnostics: dict


@dataclass(frozen=True)
class BootstrapResult:
    """Parametric-bootstrap record counts, binned by integer value.

    histogram[k] is the number of replications with exactly k records;
    q025/q975 are the empirical 2.5% and 97.5% quantiles.
    """

    histogram: np.ndarray
    q025: float
    q975: float
    mean: float


def load_series(path) -> TimeSeries:
    """Read a two-column CSV with header ``t,value``.

    Errors carry the 1-based file line number (the header is line 1).
    """
    times: list[int] = []
    values: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DriftRecordsError(f"{path}: file is empty") from None
        if [h.strip() for h in header] != ["t", "value"]:
            raise DriftRecordsError(
                f"{path} line 1: expected header 't,value', got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DriftRecordsError(
                    f"{path} line {lineno}: expected 2 fields, got {len(row)}"
                )
            t_text, v_text = row[0].strip(), row[1].strip()
            try:
                t_val = int(t_text)
            except ValueError:
                raise DriftRecordsError(
                    f"{path} line {lineno}: t value {t_text!r} is not an integer"
                ) from None
            try:
                v_val = float(v_text)
            except ValueError:
                raise DriftRecordsError(
                    f"{path} line {lineno}: value {v_text!r} is not a number"
                ) from None
            if not math.isfinite(v_val):
                raise DriftRecordsError(
                    f"{path} line {lineno}: value {v_text!r} is not finite"
                )
            if times:
                if t_val == times[-1]:
                    raise DriftRecordsError(
                        f"{path} line {lineno}: duplicate year {t_val}"
                    )
                if t_val < times[-1]:
                    raise DriftRecordsError(
                        f"{path} line {lineno}: year {t_val} breaks increasing order"
                    )
            times.append(t_val)
            values.append(v_val)
    if not times:
        raise DriftRecordsError(f"{path}: no data rows")
    return TimeSeries(
        t=np.asarray(times, dtype=np.int64),
        value=np.asarray(values, dtype=np.float64),
    )


def _safe_t_stat(beta: float, stderr: float) -> float:
    if stderr > 0.0:
        return beta / stderr
    if beta == 0.0:
        return 0.0
    return math.copysign(math.inf, beta)


def ols_fit(ts: TimeSeries) -> OlsFit:
    """Closed-form simple linear regression of value on t (n >= 3)."""
    n = len(ts)
    if n < 3:
        raise DriftRecordsError(f"need at least 3 points for a trend fit, got {n}")
    t = ts.t.astype(np.float64)
    y = ts.value
    t_bar = t.mean()
    y_bar = y.mean()
    dt = t - t_bar
    sxx = float(dt @ dt)
    if sxx <= 0.0:
        raise DriftRecordsError("time column has zero variance")
    beta1 = float(dt @ (y - y_bar)) / sxx
    beta0 = y_bar - beta1 * t_bar
    residuals = y - beta0 - beta1 * t
    rss = float(residuals @ residuals)
    s2 = rss / (n - 2)
    stderr1 = math.sqrt(s2 / sxx)
    stderr0 = math.sqrt(s2 * (1.0 / n + t_bar * t_bar / sxx))
    syy = float((y - y_bar) @ (y - y_bar))
    r2 = 1.0 if rss == 0.0 else 1.0 - rss / syy
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    return OlsFit(
        beta0=beta0,
        beta1=beta1,
        stderr0=stderr0,
        stderr1=stderr1,
        t_stats=(_safe_t_stat(beta0, stderr0), _safe_t_stat(beta1, stderr1)),
        adj_r2=adj_r2,
        residuals=residuals,
        sigma_eps=math.sqrt(s2),
    )


def _diagnostics(fit: OlsFit, n: int) -> dict:
    resid = fit.residuals
    z = resid - resid.mean()
    denom = float(z @ z)
    lag_cap = min(20, n - 2)
    if denom > 0.0 and lag_cap >= 1:
        acf = (lag_products(z, lag_cap) / denom).tolist()
    else:
        acf = []
    sd = math.sqrt(denom / n) if denom > 0.0 else 0.0
    if sd > 0.0:
        m3 = float(np.mean(z**3))
        m4 = float(np.mean(z**4))
        skew = m3 / sd**3
        ex_kurt = m4 / sd**4 - 3.0
    else:
        skew = 0.0
        ex_kurt = 0.0
    return {
        "residual_acf": acf,
        "residual_mean": float(resid.mean()),
        "residual_sd": sd,
        "residual_skewness": skew,
        "residual_excess_kurtosis": ex_kurt,
    }


def analyze(
    ts: TimeSeries,
    delta: float,
    m: int | None = None,
    level: float = 0.95,
) -> AnalysisReport:
    """Full pipeline on the raw series.

    Records are flagged on the observed values themselves, so the
    fitted trend remains in the data; the regression supplies the slope
    estimate and residual diagnostics, not a detrending step.  Each
    threshold, delta and 0 for the plain record count, is scanned once.
    """
    fit = ols_fit(ts)
    n = len(ts)
    flags = delta_record_flags(ts.value, delta)
    count = int(np.sum(flags.flags))
    plain = flags if delta == 0.0 else delta_record_flags(ts.value, 0.0)
    record_count = int(np.sum(plain.flags))
    p_hat = count / n
    est = variance_estimator(flags, m)
    interval = gaussian_interval(n, p_hat, est.sigma2, level)
    return AnalysisReport(
        n=n,
        delta=delta,
        count=count,
        record_count=record_count,
        p_hat=p_hat,
        sigma2_tilde=est.sigma2,
        m=est.m,
        sigma2_floored=est.floored,
        level=level,
        interval=interval,
        rate_path=_rates(flags.flags),
        fit=fit,
        diagnostics=_diagnostics(fit, n),
    )


def _normal_paths(u, sigma: float, trend):
    """The paths sigma * Phi^-1(u) + trend, built in place in u; unlike
    Normal(0, sigma).quantile it also serves sigma = 0, a perfect fit."""
    x = norm_quantile(u, out=u)
    x *= sigma
    x += trend
    return x


def bootstrap_histogram(
    fit: OlsFit,
    ts: TimeSeries,
    delta: float,
    reps: int,
    seed: int = 42,
    workers: int = 1,
) -> BootstrapResult:
    """Parametric bootstrap of the record count.

    Simulates value = beta0 + beta1 * t + Normal(0, sigma_eps) over the
    observed years, counts threshold records per path, and returns the
    binned counts with the central 95% empirical quantiles, which need
    ``reps`` >= 1000 to be stable. Replication streams are index-derived,
    so worker count does not affect output.
    """
    require_int("reps", reps, 1000)
    require_finite(delta=delta)
    n = len(ts)
    trend = fit.beta0 + fit.beta1 * ts.t.astype(np.float64)
    counts = np.concatenate(replicate(
        seed, reps, n,
        lambda u: record_scan(_normal_paths(u, fit.sigma_eps, trend), delta).sum(axis=1),
        workers,
    ))
    histogram = np.bincount(counts, minlength=n + 1)
    q_lo, q_hi = np.quantile(counts, [0.025, 0.975])
    return BootstrapResult(
        histogram=histogram,
        q025=float(q_lo),
        q975=float(q_hi),
        mean=float(counts.mean()),
    )


def synthetic_temperature_series(seed: int = FIXTURE_SEED) -> TimeSeries:
    """Deterministic synthetic yearly series used by the tests.

    Construction: values follow beta0 + beta1 * year + Normal(0, s)
    over years 1951..2019 with beta0 = -62.659 and beta1 = 0.0476. The
    noise scale s is back-solved so the fit attains a target adjusted
    R-squared of 0.2769 in expectation: with R2 the corresponding plain
    R-squared and Sxx the centered sum of squares of the years,
    expected explained and residual sums of squares satisfy
    R2 = b1^2 Sxx / (b1^2 Sxx + (n - 2) s^2), giving
    s = b1 * sqrt(Sxx (1 - R2) / (R2 (n - 2))).

    Raises DriftRecordsError unless ``seed`` is a non-negative integer.
    """
    t = np.arange(_FIXTURE_YEAR_LO, _FIXTURE_YEAR_HI + 1, dtype=np.int64)
    n = t.shape[0]
    r2 = 1.0 - (1.0 - _FIXTURE_ADJ_R2) * (n - 1) / (n - 2)
    dt = t.astype(np.float64) - t.astype(np.float64).mean()
    sxx = float(dt @ dt)
    sigma_eps = _FIXTURE_BETA1 * math.sqrt(sxx * (1.0 - r2) / (r2 * (n - 2)))
    trend = _FIXTURE_BETA0 + _FIXTURE_BETA1 * t.astype(np.float64)
    value = _normal_paths(replication_rng(seed, 0).random(n), sigma_eps, trend)
    return TimeSeries(t=t, value=value)
