"""Record probabilities for the linear drift model.

For noise X_j with cdf F and drift c per step, observation n is a
delta-record with probability

    p_n = integral of  prod_{i=1}^{n-1} F(x + c i - delta) f(x) dx,

and the limiting rate p is the same integral with the product taken over
all i >= 1.  This module evaluates both by adaptive quadrature of one
integrand, whose log-product sums a head of factors directly and the rest
in Euler-Maclaurin form with a bounded remainder, and classifies when the
limit is positive and when the total number of records stays finite.
"""
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import Distribution
from .errors import DriftRecordsError, QuadratureError, UndecidedError
from .quadrature import first_passes, integrate

DEFAULT_TOL = 1e-8

# Mass trimmed from each unbounded support end before quadrature.
_QUANTILE_CUT = 1e-12

# Most kinks of the product made into quadrature panel edges; see
# _product_kinks.
_MAX_KINKS = 512

# Divergence heuristics for the zero-trend finiteness integral.
_DIVERGENCE_CAP = 1e12
_MAX_DOUBLINGS = 10_000
_REL_CHANGE = 1e-6
# Doubling windows whose first quadrature pass shares one integrand call;
# integrate refines only a window whose gauge misses its tolerance.
_PROBE_BATCH = 16
# Largest error gauge, relative to its estimate, of a doubling window that
# ran out of panels and still counts.
_NOISY_WINDOW = 0.1
# The probe stops before a window where the rounding error of the
# integrand's log-space sum, about 2^-52 times the size of its terms,
# passes this; farther out the integrand is noise.
_LOG_NOISE_LIMIT = 1e-3
# Window averages within this factor of one another over the last five
# windows count as a level the integrand holds.
_LEVEL_SPREAD = 1.25

# Verdict and reason labels for finiteness classification.
ALMOST_SURELY_FINITE = "AlmostSurelyFinite"
INFINITE = "Infinite"

REASON_TAIL_MEAN_INFINITE = "tail_mean_infinite"
REASON_NEGATIVE_TREND = "negative_trend_finite_tail_mean"
REASON_THRESHOLD_COVERS_SUPPORT = "threshold_covers_support_span"
REASON_POSITIVE_TREND_RECURRENT = "positive_trend_records_recur"
REASON_ZERO_TREND_NONPOSITIVE = "zero_trend_nonpositive_threshold"
REASON_ZERO_TREND_CONVERGES = "zero_trend_survival_integral_converges"
REASON_ZERO_TREND_DIVERGES = "zero_trend_survival_integral_diverges"


@dataclass(frozen=True)
class LdmConfig:
    """A linear drift model: noise law, trend per step, record threshold."""

    dist: Distribution
    c: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.delta)):
            raise DriftRecordsError("trend and threshold must be finite")


@dataclass(frozen=True)
class ProbResult:
    """A probability with its numerical error bound.

    ``truncation_n`` is the largest number of leading product factors
    summed one by one at any quadrature node; the factors after them come
    from the Euler-Maclaurin tail.  It is 0 when no factor needed a direct
    sum, including when the value is exact without quadrature.
    """

    value: float
    abs_error_bound: float
    truncation_n: int


@dataclass(frozen=True)
class FinitenessVerdict:
    """Whether the total record count stays finite, and why."""

    verdict: str
    reason: str
    integral_value: Optional[float] = None


def _quantile_window(dist):
    """Finite integration window covering all but ~2e-12 of the mass."""
    lo, hi = dist.support
    cut = 0.0
    if not math.isfinite(lo):
        lo = float(dist.quantile(_QUANTILE_CUT))
        cut += _QUANTILE_CUT
    if not math.isfinite(hi):
        hi = float(dist.quantile(1.0 - _QUANTILE_CUT))
        cut += _QUANTILE_CUT
    return lo, hi, cut


def _product_cutoff(dist, c, delta, n_factors):
    """Largest x below which some product factor is exactly zero.

    Factor i evaluates F at x + c i - delta; with a finite lower support
    endpoint the whole product vanishes for x below the cutoff.  An empty
    product never vanishes.
    """
    supp_lo = dist.support[0]
    if not math.isfinite(supp_lo) or n_factors == 0:
        return -math.inf
    i_min = 1 if c >= 0.0 else n_factors
    return supp_lo + delta - c * i_min


def _product_kinks(dist, c, delta, m, lo, hi):
    """Points of (lo, hi) where a factor F(x + c i - delta), i <= m,
    reaches a finite upper support endpoint, so the product has a kink.

    More than _MAX_KINKS of them are left to adaptive bisection.
    """
    top = dist.support[1]
    if not math.isfinite(top) or c <= 0.0:
        return ()
    i_lo = max(1, math.ceil((top + delta - hi) / c))
    i_hi = min(m, math.floor((top + delta - lo) / c))
    if i_hi - i_lo >= _MAX_KINKS:
        return ()
    return top + delta - c * np.arange(i_lo, i_hi + 1, dtype=np.float64)


@dataclass
class _TailLedger:
    """State one quadrature shares across its calls of ``_log_product``.

    ``budget`` bounds the Euler-Maclaurin remainder at every node, and
    ``y_lo`` is the lowest argument y the calls will pass.  ``start`` is
    an argument from which the tail meets the budget, found on the first
    call; ``head`` and ``eps`` are the largest direct head and the largest
    remainder bound used so far.
    """

    budget: float
    y_lo: float
    start: Optional[float] = None
    head: int = 0
    eps: float = 0.0

    def error(self, value, err):
        """What the remainders add to the error of a quadrature value
        ``value`` +- ``err`` of exp(log-product) times a factor >= 0.

        Each node's integrand is off by a factor within exp(+-eps), so the
        integral p is off by at most expm1(eps) p, and p is at most
        (value + err) / (1 - expm1(eps)).
        """
        grow = math.expm1(self.eps)
        return (value + err) * grow / (1.0 - grow)


_CHUNK_BUDGET = 1 << 22

# Heads past 2**52 factors are never needed: the doubling search for the
# first head that meets the budget stops there.
_MAX_HEAD = 1 << 52

# A tail shorter than this is summed directly: evaluating the
# Euler-Maclaurin terms costs about as much as that many factors.
_MIN_TAIL = 64


def _first_fit(fits, m):
    """Smallest integer k in [0, m] with fits(k), for fits monotone in k
    and true at m; fits maps an integer array to a boolean array."""
    ladder = np.concatenate(([0], 1 << np.arange(53, dtype=np.int64)))
    ks = np.unique(np.minimum(ladder, min(m, _MAX_HEAD)))
    ok = fits(ks)
    if not ok.any():
        raise DriftRecordsError(
            "the Euler-Maclaurin remainder of the infinite product never met "
            "its budget"
        )
    j = int(np.argmax(ok))
    lo, hi = (int(ks[j - 1]) if j else -1), int(ks[j])
    while hi - lo > 1:
        # 64-way split of (lo, hi]: fits(lo) is false and fits(hi) true
        ks = np.unique(lo + (hi - lo) * np.arange(1, 65, dtype=np.int64) // 64)
        j = int(np.argmax(fits(ks)))
        lo, hi = (int(ks[j - 1]) if j else lo), int(ks[j])
    return hi


def _b6(c, x):
    """(c^5 / 30240) x, the sixth-order Euler-Maclaurin coefficient for a
    step c times x, without forming c^5: that overflows long before the
    product does, and x = 0 must give 0."""
    with np.errstate(over="ignore"):
        return x * c * c * c * c * c / 30240.0


def _head_length(dist, y_min, c, m, tail):
    """Number of factors to sum directly so that the remainder bound at
    every node y >= y_min meets ``tail.budget``.

    The sixth-order Euler-Maclaurin remainder after K direct factors is
    at most (c^5/30240) TV(g^(5)) over [y + c (K+1), y + c m], and that
    variation shrinks as the interval's left end moves right.  The first
    call finds the smallest K for y = tail.y_lo, which puts the first tail
    factor at tail.start; every call then starts its tail there or just
    after.  A tail shorter than ``_MIN_TAIL`` joins the head.
    """
    if tail.start is None:
        end = dist.log_cdf_d5(math.inf)

        def fits(k):
            a = tail.y_lo + c * (k + 1.0)
            tv = dist.log_cdf_d5_variation(a, math.inf, dist.log_cdf_d5(a), end)
            return (k >= m) | (_b6(c, tv) <= tail.budget)

        tail.start = tail.y_lo + c * (_first_fit(fits, m) + 1.0)
    head = max(math.ceil((tail.start - y_min) / c) - 1, 0)
    return head if m - head >= _MIN_TAIL else m


def _em_tail(dist, y, c, head, m, tail):
    """sum_{i=head+1..m} log F(y + c i) by Euler-Maclaurin with three
    correction terms; records the largest remainder bound in ``tail``.

    With a = y + c (head+1), b = y + c last and D h = h(b) - h(a):

        D G / c + (g(a) + g(b)) / 2 + (c/12) D g' - (c^3/720) D g'''
            + (c^5/30240) D g^(5),

    within (c^5/30240) TV(g^(5)) over [a, b].  Each function of g but G
    is evaluated once, on a and b together; G apart, because the normal G
    costs per finite point and b is often infinite.
    """
    top = dist.support[1]
    last = np.full(y.shape, float(m))
    if math.isfinite(top):
        # factors at arguments >= top are exactly 1
        last = np.minimum(last, np.ceil((top - y) / c) - 1.0)
    some = last > head
    a = y + c * (head + 1.0)
    b = np.where(some, y + c * last, a)
    n = y.shape[0]
    ends = np.concatenate((a, b))
    g, g1, g3, g5 = (
        h(ends) for h in (dist.log_cdf, dist.log_cdf_d1, dist.log_cdf_d3, dist.log_cdf_d5)
    )
    g5a, g5b = g5[:n], g5[n:]
    s = (
        (dist.log_cdf_integral(b) - dist.log_cdf_integral(a)) / c
        + 0.5 * (g[:n] + g[n:])
        + c / 12.0 * (g1[n:] - g1[:n])
        - (g3[n:] - g3[:n]) * c * c * c / 720.0
        + _b6(c, g5b - g5a)
    )
    tv = dist.log_cdf_d5_variation(a, b, g5a, g5b)
    eps = np.where(some, _b6(c, tv), 0.0)
    tail.eps = max(tail.eps, float(eps.max()))
    return np.where(some, s, 0.0)


def _log_product(dist, y, c, m, tail):
    """sum_{i=1..m} log F(y + c i) for each y; m may be math.inf.

    The first factors are summed directly, chunking the (y, i) grid.  For
    c > 0 the factors after the head returned by ``_head_length`` come
    from ``_em_tail``; for c <= 0, or m <= _MIN_TAIL, every factor is
    summed directly.
    """
    if c > 0.0 and m > _MIN_TAIL:
        head = _head_length(dist, float(y.min()), c, m, tail)
    else:
        head = m
    tail.head = max(tail.head, head)
    out = np.zeros_like(y)
    if head > 0:
        offsets = c * np.arange(1, head + 1, dtype=np.float64)
        step = max(1, _CHUNK_BUDGET // head)
        for start in range(0, y.shape[0], step):
            block = y[start:start + step]
            out[start:start + step] = dist.log_cdf(
                block[:, None] + offsets[None, :]
            ).sum(axis=1)
    if head < m:
        out += _em_tail(dist, y, c, head, m, tail)
    return out


def _record_integral(cfg, m, tol, weights=None, reach=0.0, kinks=()):
    """int w(x) prod_{i=1..m} F(x + c i - delta) dx for m >= 0 or m = inf,
    one ``ProbResult`` per weight w in ``weights``.

    The weights w >= 0 default to ``(dist.pdf,)``, and ``kinks`` are their
    panel edges.  All of them share one quadrature, and each integrand
    evaluation one log-product.  The quantile window [lo, hi] is widened
    to [lo + min(reach, 0), hi + max(reach, 0)]; a weight must leave
    outside it at most the mass f leaves outside [lo, hi].  Each bound
    adds the quadrature gauge (at 0.8 tol), that omitted mass, and what
    the Euler-Maclaurin remainders (each node within tol/10 in log space)
    add.
    """
    if not tol > 0.0:
        raise DriftRecordsError(f"tol must be positive, got {tol}")
    dist, c, delta = cfg.dist, cfg.c, cfg.delta
    ws = (dist.pdf,) if weights is None else tuple(weights)
    lo, hi, cut = _quantile_window(dist)
    lo = max(lo + min(reach, 0.0), _product_cutoff(dist, c, delta, m))
    hi += max(reach, 0.0)
    if lo >= hi:
        return tuple(ProbResult(0.0, 0.0, 0) for _ in ws)

    tail = _TailLedger(tol / 10.0, lo - delta)

    def integrand(x):
        with np.errstate(over="ignore"):
            product = np.exp(_log_product(dist, x - delta, c, m, tail))
        out = np.empty((len(ws),) + x.shape)
        for row, w in zip(out, ws):
            np.multiply(product, w(x), out=row)
        return out

    breaks = np.concatenate((_product_kinks(dist, c, delta, m, lo, hi), kinks))
    values, errs = integrate(integrand, lo, hi, 0.8 * tol, breaks=breaks)
    out = []
    for value, err in zip(values.tolist(), errs.tolist()):
        value = min(max(value, 0.0), 1.0)
        out.append(ProbResult(value, err + cut + tail.error(value, err), tail.head))
    return tuple(out)


def p_n_delta(cfg: LdmConfig, n: int, tol: float = DEFAULT_TOL) -> ProbResult:
    """Probability that observation ``n`` is a delta-record.

    Observation 1 is a delta-record by convention, so ``n=1`` returns 1
    exactly.  Otherwise the defining integral is evaluated to within
    ``tol`` by adaptive quadrature, with the finite product accumulated in
    log space.
    """
    if n < 1:
        raise DriftRecordsError(f"n must be >= 1, got {n}")
    if not tol > 0.0:
        raise DriftRecordsError(f"tol must be positive, got {tol}")
    if n == 1:
        return ProbResult(1.0, 0.0, 0)
    return _record_integral(cfg, n - 1, tol)[0]


def classify_positivity(cfg: LdmConfig) -> bool:
    """Whether the limiting delta-record rate is strictly positive.

    True exactly when the right-tail mean is finite and either the trend is
    positive with delta < (support span) + c, or the trend is zero with
    delta < 0 and a finite upper endpoint.
    """
    if math.isinf(cfg.dist.tail_info().mu_plus):
        return False
    lo, hi = cfg.dist.support
    if cfg.c > 0.0:
        span = hi - lo  # may be inf, never nan: lo < hi always
        return cfg.delta < span + cfg.c
    if cfg.c == 0.0:
        return cfg.delta < 0.0 and math.isfinite(hi)
    return False


def p_delta(cfg: LdmConfig, tol: float = DEFAULT_TOL) -> ProbResult:
    """Limiting delta-record rate, the n -> infinity limit of p_n.

    When the positivity classifier rules the limit out, returns 0 exactly.
    For zero trend (finite upper endpoint, negative delta) the limit equals
    the closed form 1 - F(x_sup + delta).  For positive trend the infinite
    product is the same log-product as for p_n with no last factor: its
    Euler-Maclaurin tail runs to infinity, so nothing is truncated.
    """
    if not tol > 0.0:
        raise DriftRecordsError(f"tol must be positive, got {tol}")
    if not classify_positivity(cfg):
        return ProbResult(0.0, 0.0, 0)

    dist, c, delta = cfg.dist, cfg.c, cfg.delta
    if c == 0.0:
        hi = dist.support[1]
        value = float(np.clip(1.0 - dist.cdf(hi + delta), 0.0, 1.0))
        return ProbResult(value, 0.0, 0)
    if c < 0.0:
        raise DriftRecordsError(
            "internal inconsistency: nonzero limiting rate claimed for a "
            "negative trend"
        )
    return _record_integral(cfg, math.inf, tol)[0]


def _finiteness_integrand(dist, delta):
    log_sf, log_pdf = dist.log_sf, dist.log_pdf

    def g(x):
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.exp(log_sf(x + delta) - 2.0 * log_sf(x) + log_pdf(x))
        return np.nan_to_num(out, nan=0.0, posinf=0.0)

    return g


def _finiteness_noise(dist, delta, x):
    """Rounding error, in log space, of the finiteness integrand at x."""
    terms = np.abs(dist.log_sf(x + delta)) + 2.0 * np.abs(dist.log_sf(x))
    return 2.0**-52 * (terms + np.abs(dist.log_pdf(x)))


def _holds_level(increments, widths):
    """Whether the integrand held a positive level over the last five
    doubling windows: their averages lie within _LEVEL_SPREAD of one
    another.  Then the integral grows without bound."""
    avg = np.divide(increments[-5:], widths[-5:])
    return avg.size == 5 and avg.min() > 0.0 and avg.max() <= _LEVEL_SPREAD * avg.min()


def classify_finiteness(cfg: LdmConfig, tol: float = DEFAULT_TOL) -> FinitenessVerdict:
    """Decide whether the model yields finitely many delta-records.

    Finite exactly when: the trend is negative with a finite right-tail
    mean; or the trend is zero, delta > 0, and the survival-ratio integral
    int (1-F(x+delta)) / (1-F(x))^2 f(x) dx over x >= 0 converges; or the
    trend is positive and delta - c covers the support span.  The zero-trend
    integral is probed numerically over windows that double in width past
    the median (or past 0, when that is higher), so the first window holds
    the bulk of the mass wherever the law sits.  Divergence is declared
    once partial integrals pass a cap, or when the probe ends with the
    integrand holding a positive level over its last five windows;
    convergence once a window adds a negligible share of a positive total.
    The probe ends before the first window where rounding in the
    integrand's log-space sum passes 1e-3.  A window that quadrature
    cannot resolve to its tolerance still counts when its error gauge is
    within a tenth of its estimate, though it cannot show convergence.  A
    probe that ends in neither state raises UndecidedError.
    """
    dist, c, delta = cfg.dist, cfg.c, cfg.delta
    lo, hi = dist.support
    if math.isinf(dist.tail_info().mu_plus):
        return FinitenessVerdict(INFINITE, REASON_TAIL_MEAN_INFINITE)
    if c < 0.0:
        return FinitenessVerdict(ALMOST_SURELY_FINITE, REASON_NEGATIVE_TREND)
    if c > 0.0:
        if hi - lo <= delta - c:
            return FinitenessVerdict(
                ALMOST_SURELY_FINITE, REASON_THRESHOLD_COVERS_SUPPORT
            )
        return FinitenessVerdict(INFINITE, REASON_POSITIVE_TREND_RECURRENT)
    if delta <= 0.0:
        return FinitenessVerdict(INFINITE, REASON_ZERO_TREND_NONPOSITIVE)

    g = _finiteness_integrand(dist, delta)
    lo0 = max(lo, 0.0)

    if math.isfinite(hi):
        # The numerator vanishes above hi - delta, so the domain is compact
        # and the denominator stays bounded away from zero on it: finite.
        top = hi - delta
        if top <= lo0:
            return FinitenessVerdict(
                ALMOST_SURELY_FINITE, REASON_ZERO_TREND_CONVERGES, 0.0
            )
        val, _ = integrate(g, lo0, top, tol)
        return FinitenessVerdict(
            ALMOST_SURELY_FINITE, REASON_ZERO_TREND_CONVERGES, float(val)
        )

    total = 0.0
    upper = lo0
    base = max(lo0, float(dist.quantile(0.5)))
    increments, widths = [], []
    for k in range(_MAX_DOUBLINGS):
        new_upper = base + 2.0 ** k
        if k % _PROBE_BATCH == 0:
            tops = [base + 2.0 ** j for j in range(k, k + _PROBE_BATCH)]
            noise = _finiteness_noise(dist, delta, np.array(tops)).tolist()
            first = zip(*first_passes(g, [upper] + tops[:-1], tops), noise)
        seg, gauge, noise_k = next(first)
        if noise_k > _LOG_NOISE_LIMIT:
            break
        # Absolute budget halves per window; the relative floor keeps huge
        # partial integrals (the divergent regimes) integrable at all.
        seg_tol = max(tol / 2.0 ** (k + 1), 1e-10 * (1.0 + total))
        noisy = False
        if gauge > seg_tol:
            try:
                seg, _ = integrate(g, upper, new_upper, seg_tol)
            except QuadratureError as exc:
                # rounding noise can keep a far window from the relative
                # floor; an estimate known to within a small fraction of
                # itself still counts, though not towards convergence
                if not exc.error_bound <= _NOISY_WINDOW * exc.best_estimate:
                    raise UndecidedError(
                        "the survival-ratio integral could not be resolved on "
                        f"[{upper:g}, {new_upper:g}]: {exc}"
                    ) from exc
                seg, noisy = exc.best_estimate, True
        total += seg
        increments.append(seg)
        widths.append(new_upper - upper)
        upper = new_upper
        if total > _DIVERGENCE_CAP:
            return FinitenessVerdict(INFINITE, REASON_ZERO_TREND_DIVERGES)
        if not noisy and total > 0.0 and seg < _REL_CHANGE * total:
            return FinitenessVerdict(
                ALMOST_SURELY_FINITE, REASON_ZERO_TREND_CONVERGES, float(total)
            )
        if upper > 1e290:
            break
    if _holds_level(increments, widths):
        return FinitenessVerdict(INFINITE, REASON_ZERO_TREND_DIVERGES)
    raise UndecidedError(
        "the survival-ratio integral neither converged nor held a level "
        "before rounding noise took over"
    )
