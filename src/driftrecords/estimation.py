"""Variance machinery for the record-count central limit theorem.

Two routes to the limiting variance: a data-driven lag-window estimator
computed from one observed indicator sequence, and a Monte Carlo
estimate that pools stationary-regime indicators across replications.
Both feed the Gaussian interval for the record count.
"""
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import lag_products, record_scan
from ._special import norm_quantile
from .errors import DriftRecordsError, require_finite, require_int
from .probability import LdmConfig
from .records import RecordFlags
from .simulate import replicate

# The relative slack of `_window`'s burn-in cut: it covers the rounding
# of its test and a quantile that steps back by a few ulps, as the normal
# one does by up to 4; 2**-40 is 4096 ulps.
_PRUNE_SLACK = 2.0**-40


@dataclass(frozen=True)
class VarianceEstimate:
    """Lag-window variance estimate.

    sigma2 = gamma(0) + 2 * sum_{k<=m} gamma(k), floored at zero;
    `floored` records whether the floor was applied. gammas holds
    gamma(0..m).
    """

    sigma2: float
    m: int
    gammas: np.ndarray
    floored: bool


def variance_estimator(
    flags: RecordFlags | np.ndarray, m: int | None = None
) -> VarianceEstimate:
    """Lag-window long-run variance of the record indicators, given as
    RecordFlags or as a plain 0/1 array.

    Autocovariances use the 1/n normalization,
    gamma(k) = n^{-1} sum_{j=1}^{n-k} (1_j - N/n)(1_{j+k} - N/n),
    and the window sums lags 1..m with unit weights. m defaults to
    floor(sqrt(n)) capped at n//2; m = 0 yields exactly the Bernoulli
    variance  p_hat (1 - p_hat). Negative totals are floored at zero
    with the `floored` flag set, since small samples can produce them.
    """
    if isinstance(flags, RecordFlags):
        flags = flags.flags
    # centred in place, on a copy of its own
    z = np.array(flags, dtype=np.float64)
    n = z.shape[0]
    if n == 0:
        raise DriftRecordsError("flags must hold at least one indicator")
    if m is None:
        m = min(int(math.isqrt(n)), n // 2)
    require_int("m", m, 0)
    if m > n // 2:
        raise DriftRecordsError(f"lag window m={m} outside [0, n//2] = [0, {n // 2}]")
    z -= z.mean()
    gammas = np.empty(m + 1, dtype=np.float64)
    gammas[0] = float(z @ z) / n
    if m >= 1:
        gammas[1:] = lag_products(z, m) / n
    sigma2 = float(gammas[0] + 2.0 * gammas[1:].sum())
    floored = sigma2 < 0.0
    if floored:
        sigma2 = 0.0
    return VarianceEstimate(sigma2=sigma2, m=m, gammas=gammas, floored=floored)


def _window(dist, drift, burn_in, u):
    """`asymptotic_variance_mc`'s paths of the block u from column
    max(w, 0) on, for w = burn_in - 1 >= -1, column w raised to its
    row's burn-in maximum; with no burn-in (w = -1) they are the whole
    paths.  They are built in place, in a view of u, and every column
    from j0 on (below) is overwritten.

    The window comes first, so x[w] = Q(u[w]) + drift[w] is known.  At
    c = drift[0] > 0, as the quantile Q is monotone, column j < w holds
    at most Q(top) + drift[j], for top the row's largest burn-in
    uniform, and below x[w] it cannot be the maximum.  So the columns
    whose drift is under x[w] - Q(top), less a relative slack of
    ``_PRUNE_SLACK``, in every row of the block take no quantile.
    """
    w = burn_in - 1
    x = dist.quantile(u[:, max(w, 0):], out=u[:, max(w, 0):])
    x += drift[max(w, 0):]
    j0 = 0
    if w > 0 and drift[0] > 0.0:
        last = x[:, 0]
        top = dist.quantile(u[:, :w].max(axis=1))
        # NaN (an infinite drift or top) leaves the whole burn-in in place
        with np.errstate(invalid="ignore"):
            lim = np.min(last - top - _PRUNE_SLACK * (np.abs(last) + np.abs(top)))
        j0 = 0 if np.isnan(lim) else int(np.searchsorted(drift[:w], lim))
    if j0 < w:
        burn = dist.quantile(u[:, j0:w], out=u[:, j0:w])
        burn += drift[j0:w]
        np.maximum(burn.max(axis=1), x[:, 0], out=x[:, 0])
    return x


def _lag_counts_bytes(ind, lag_max):
    """The ones of the (reps, horizon) window flags ind, and for each lag
    k = 1..lag_max the pairs ind[i, j] & ind[i, j + k]: one `&` and one
    `count_nonzero` per lag, a byte per flag."""
    pairs = [np.count_nonzero(ind[:, :-k] & ind[:, k:]) for k in range(1, lag_max + 1)]
    return int(np.count_nonzero(ind)), pairs


def _lag_counts_packed(ind, lag_max):
    """`_lag_counts_bytes` on 64 flags a word, for numpy >= 2.

    Each row's flags go little-endian into uint64 words, followed by
    lag_max // 64 + 1 zero words, so no pair crosses rows and the rows
    can be counted as one flat array w.  Lag k = 64q + r pairs bit b of
    w[i] with bit b + r of the 128-bit word (w[i+q+1], w[i+q]), a shift
    and a `bitwise_count` per lag on an eighth of the bytes.
    """
    reps, horizon = ind.shape
    nbytes = -(-horizon // 8)
    packed = np.zeros((reps, 8 * (-(-horizon // 64) + lag_max // 64 + 1)), np.uint8)
    packed[:, :nbytes] = np.packbits(ind, axis=1, bitorder="little")
    w = packed.view("<u8").ravel()
    n = w.shape[0]
    pairs = []
    for k in range(1, lag_max + 1):
        q, r = divmod(k, 64)
        # the words past n - q - 1 are the last row's zero padding
        pair = w[q:n - 1] >> r
        if r:
            pair |= w[q + 1:] << (64 - r)
        pair &= w[:n - q - 1]
        pairs.append(int(np.bitwise_count(pair).sum()))
    return int(np.bitwise_count(w).sum()), pairs


# numpy < 2 has no popcount ufunc
_lag_counts = _lag_counts_packed if hasattr(np, "bitwise_count") else _lag_counts_bytes


def asymptotic_variance_mc(
    ldm: LdmConfig,
    horizon: int = 4000,
    burn_in: int = 2000,
    lag_max: int = 50,
    reps: int = 200,
    seed: int = 0,
    workers: int = 1,
) -> float:
    """Monte Carlo estimate of the limiting variance of the record rate.

    Indicators from the window (burn_in, burn_in + horizon] approximate
    the stationary regime; the burn-in absorbs the transient in which
    early observations still influence the running maximum. Pools the
    indicator mean p and the lag moments r_m = E[1_i 1_{i+m}] across
    replications and returns

        p - p^2 + 2 * sum_{m=1}^{lag_max} (r_m - p^2),

    floored at zero: the lag-0 variance plus twice the lag
    covariances, truncated at lag_max.

    Each block of replications returns only its window's record flags,
    one byte per window value (0.8 MB at the defaults), and the ones
    and lag pairs are counted once, over all replications, after the
    pool.  Under numpy >= 2 they are counted on the flags packed 64 to
    a word (0.1 MB), a shift and a popcount per lag
    (`_lag_counts_packed`); older numpy has no popcount ufunc and
    counts them a byte per flag (`_lag_counts_bytes`).  The counts are
    exact integers, so the estimate does not depend on the path, the
    block split or the worker count.

    The burn-in reaches the window only through each row's maximum, so
    a block builds only the window, from column burn_in - 1 on (the
    whole path with no burn-in), folds that maximum into its first
    column and scans from there (`_window`).
    At c > 0 the burn-in takes quantiles only where its maximum can
    fall: about 4,050 a row instead of 6,000 at the defaults (Normal,
    c = 0.1).  max picks one of its inputs, and the compare cannot tell
    -0.0 from +0.0, so every flag and the estimate keep their bits.
    """
    require_int("lag_max", lag_max, 0)
    require_int("horizon", horizon, lag_max + 1)
    require_int("burn_in", burn_in, 0)
    drift = ldm.c * np.arange(1, burn_in + horizon + 1, dtype=np.float64)

    def reduce(u):
        return record_scan(_window(ldm.dist, drift, burn_in, u), ldm.delta)[:, -horizon:]

    ind = np.concatenate(replicate(seed, reps, burn_in + horizon, reduce, workers))
    ones, pairs = _lag_counts(ind, lag_max)
    p_hat = float(ones) / (reps * horizon)
    r_hat = np.array(pairs, np.float64) / (reps * (horizon - np.arange(1, lag_max + 1)))
    sigma2 = p_hat - p_hat * p_hat + 2.0 * float(np.sum(r_hat - p_hat * p_hat))
    return max(sigma2, 0.0)


def gaussian_interval(
    n: int, p_hat: float, sigma2: float, level: float
) -> tuple[float, float]:
    """Central Gaussian interval for the record count.

    Quantiles of Normal(n * p_hat, n * sigma2) at (1 - level)/2 and
    1 - (1 - level)/2. sigma2 = 0 degenerates to a point.
    """
    require_int("n", n, 1)
    require_finite(p_hat=p_hat, sigma2=sigma2)
    if not 0.0 < level < 1.0:
        raise DriftRecordsError(f"level must lie in (0, 1), got {level}")
    if sigma2 < 0.0:
        raise DriftRecordsError(f"sigma2 must be >= 0, got {sigma2}")
    mean = n * p_hat
    sd = math.sqrt(n * sigma2)
    z = float(norm_quantile(0.5 + level / 2.0))
    return (mean - z * sd, mean + z * sd)
