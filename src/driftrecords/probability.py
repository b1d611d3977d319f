"""Record probabilities for the linear drift model.

For noise X_j with cdf F and drift c per step, observation n is a
delta-record with probability

    p_n = integral of  prod_{i=1}^{n-1} F(x + c i - delta) f(x) dx,

and the limiting rate p is the same integral with the product taken over
all i >= 1.  This module evaluates both by adaptive quadrature of one
integrand, whose log-product is an Euler-Maclaurin tail after a direct
head, a midpoint sum or a direct sum, whichever comes first with an error
in budget, and classifies when the limit is positive and when the total
number of records stays finite.  Every integral runs on the law's standard
member.  f's window, kept per law, and the Euler-Maclaurin tail threshold,
which depends on neither delta nor n, kept per law, trend and tolerance,
are set up before its first integrand call, which reads its head from the
threshold at its lowest node.
"""
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import Distribution
from .errors import (
    DriftRecordsError, QuadratureError, require_finite, require_int, require_positive,
)
from .quadrature import integrate

DEFAULT_TOL = 1e-8

# Mass trimmed from each unbounded support end before quadrature.
_QUANTILE_CUT = 1e-12

# Most kinks of the product made into quadrature panel edges; see
# _product_kinks.
_MAX_KINKS = 512

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
        require_finite(c=self.c, delta=self.delta)


def _standard(cfg):
    """cfg on its law's standard member, with c and delta over its scale."""
    member, scale = cfg.dist.standard()
    c, delta = cfg.c / scale, cfg.delta / scale
    if math.isinf(c) or math.isinf(delta):
        raise DriftRecordsError(f"c or delta over the law's scale {scale:g} overflows")
    return LdmConfig(member, c, delta)


@dataclass(frozen=True)
class ProbResult:
    """A probability with its numerical error bound.

    ``truncation_n`` is the largest number of leading product factors
    summed one by one at any quadrature node; the factors after them come
    from the Euler-Maclaurin tail or its midpoint sum, which sums none
    directly.  It is 0 for a value exact without quadrature and at c = 0.
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


@dataclass(frozen=True)
class Weight:
    """A record-integral weight w >= 0, ``fn`` on the window [lo, hi], with
    its ``kinks`` as panel edges.  It leaves outside its window at most the
    mass f leaves outside f's, and its integral against the product is at
    most 1, as values are clamped to [0, 1]."""

    fn: Callable
    lo: float
    hi: float
    kinks: tuple = ()


@functools.lru_cache(maxsize=64)
def _density_weight(dist):
    """f's ``Weight`` on a finite window and the mass it leaves out (at
    most 2e-12), kept for the most recent laws (frozen, so they hash)."""
    lo, hi = dist.support
    cut = 0.0
    if not math.isfinite(lo):
        lo = float(dist.quantile(_QUANTILE_CUT))
        cut += _QUANTILE_CUT
    if not math.isfinite(hi):
        hi = float(dist.quantile(1.0 - _QUANTILE_CUT))
        cut += _QUANTILE_CUT
    return Weight(dist.pdf, lo, hi), cut


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


@functools.lru_cache(maxsize=64)
def _rise_scale(dist):
    """The law's median less its finite lower support end: the scale over
    which a factor rises from 0."""
    return float(dist.quantile(0.5)) - dist.support[0]


def _cutoff_edges(dist, lo):
    """Panel edges lo + s 10^(k/3) for k < 3 log10(lo/s), where the
    product cutoff has raised the window's low end to lo, s being
    ``_rise_scale``.

    The product rises from 0 at lo over a few s.  Far above s a first
    geometric panel, about 0.15 lo wide, would hide that rise from the
    quadrature's error gauge; these edges resolve it a third of a decade
    at a time.
    """
    s = _rise_scale(dist)
    if not lo > s:
        return ()
    k = np.arange(math.ceil(3.0 * math.log10(lo / s)))
    return lo + s * 10.0 ** (k / 3.0)


def _below_top(dist, c, y):
    """How many factors F(y + c i), i >= 1, lie below the support top,
    for c > 0: max(ceil((top - y)/c) - 1, 0), elementwise on floats.

    Every factor from there on is exactly 1.  The count is inf for an
    unbounded top and wherever the ratio overflows.
    """
    top = dist.support[1]
    if top == math.inf:
        return math.inf
    with np.errstate(over="ignore"):
        return np.maximum(np.ceil((top - y) / c) - 1.0, 0.0)


def _product_kinks(dist, c, delta, m, lo, hi):
    """Points of [lo, hi] where a factor F(x + c i - delta), i <= m,
    reaches a finite upper support endpoint, so the product has a kink.

    More than _MAX_KINKS of them are left to adaptive bisection.
    """
    if c <= 0.0:
        return ()
    first = _below_top(dist, c, hi - delta) + 1.0
    last = min(m, _below_top(dist, c, lo - delta))
    if not first <= last < first + _MAX_KINKS:
        return ()
    return dist.support[1] + delta - c * np.arange(first, last + 1.0)


_CHUNK_BUDGET = 1 << 22

# No head is longer than 2**52 factors.
_MAX_HEAD = 1 << 52

# A tail shorter than this is summed directly: evaluating the
# Euler-Maclaurin terms costs about as much as that many factors.
_MIN_TAIL = 64

_EPS, _LOG_MIN = sys.float_info.epsilon, math.log(sys.float_info.min)


def _b6(c, x):
    """(c^5 / 30240) x, the sixth-order Euler-Maclaurin coefficient for a
    step c times x, without forming c^5: that overflows long before the
    product does, and x = 0 must give 0."""
    with np.errstate(over="ignore"):
        return x * c * c * c * c * c / 30240.0


def _key(x):
    """The search key of a finite double x: its bits for x >= 0, minus
    the bits of -x for x < 0, so that keys and doubles share one order."""
    bits = int(np.float64(abs(x)).view(np.int64))
    return -bits if x < 0.0 else bits


@functools.lru_cache
def _tail_threshold(dist, c, budget):
    """Smallest finite double a above the support's lower end from which
    every Euler-Maclaurin tail of step c > 0 meets ``budget``, or +inf
    when none does.

    A tail whose first argument is a has a remainder within
    (c^5/30240) TV(g^(5)) over [a, +inf), as g^(5)(+inf) = 0 for every
    law.  That shrinks as a moves right, so the answer depends on the
    law, c and the budget alone, and is kept for the 128 most recent.
    The search runs over the finite doubles in the order of their
    ``_key``: it doubles out from key 0, then splits the bracket 64 ways
    until it is at most c wide or one key wide, and returns its top.  So a
    head read from a is at most one longer than the shortest head that
    meets the budget.
    """
    lo, hi = _key(math.nextafter(dist.support[0], math.inf)), _key(sys.float_info.max)
    ladder = 1 << np.arange(63, dtype=np.int64)
    ks = np.clip(np.concatenate(([lo], -ladder[::-1], [0], ladder, [hi])), lo, hi)
    split = np.arange(65, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            a = np.copysign(np.abs(ks).view(np.float64), ks)
            tv = _d5_variation(dist, a, math.inf, dist.log_cdf_em(a)[3], 0.0)
            fits = _b6(c, tv) <= budget
            if not fits[-1]:
                return math.inf
            j = int(np.argmax(fits))
            if j == 0:
                return float(a[0])
            lo, hi = int(ks[j - 1]), int(ks[j])
            if hi - lo == 1 or a[j] - a[j - 1] <= c:
                return float(a[j])
            # split (lo, hi] 64 ways, exactly and within int64
            q, r = divmod(hi - lo, 64)
            ks = lo + q * split + r * split // 64


def _d5_variation(dist, a, b, d5a, d5b):
    """Upper bound on the total variation of the member's g^(5) over
    [a, b] from d5a = g^(5)(a) and d5b = g^(5)(b): g^(5) is monotone
    between the law's ``d5_extrema``, so the increments from a through
    the extrema inside (a, b) to b; one outside adds nothing."""
    tv, prev = 0.0, d5a
    for z, peak in dist.d5_extrema:
        v = np.where(z <= a, d5a, np.where(z >= b, d5b, peak))
        tv, prev = tv + np.abs(v - prev), v
    return tv + np.abs(d5b - prev)


def _em_tail(dist, y, c, head, m):
    """sum_{i=head+1..m} log F(y + c i) by Euler-Maclaurin with three
    correction terms; per node its error, the remainder bound plus the
    cancellation term eps (|G(a)| + |G(b)|)/c; and its count of factors
    and -D g', from which ``_log_product`` forms the tail's midpoint sum.

    With a = y + c (head+1), b = y + c last and D h = h(b) - h(a):

        D G / c + (g(a) + g(b)) / 2 + (c/12) D g' - (c^3/720) D g'''
            + (c^5/30240) D g^(5),

    within (c^5/30240) TV(g^(5)) over [a, b].  g, G and its odd
    derivatives are evaluated once, on a and b together.  When every b is
    +inf, as for p with an unbounded top, only a is evaluated: G, g and
    its odd derivatives are exactly 0 at +inf for every law.
    """
    last = np.minimum(float(m), _below_top(dist, c, y))
    a = y + c * (head + 1.0)
    n = y.shape[0]
    at_inf = bool(np.all(last == math.inf))
    if at_inf:
        some, b, ends = True, math.inf, a
    else:
        some = last > head
        b = np.where(some, y + c * last, a)
        ends = np.concatenate((a, b))
    values = (dist.log_cdf(ends), *dist.log_cdf_em(ends))
    ga, Ga, g1a, g3a, g5a = (v[:n] for v in values)
    gb, Gb, g1b, g3b, g5b = (0.0,) * 5 if at_inf else (v[n:] for v in values)
    s = (
        (Gb - Ga) / c
        + 0.5 * (ga + gb)
        + c / 12.0 * (g1b - g1a)
        - (g3b - g3a) * c * c * c / 720.0
        + _b6(c, g5b - g5a)
    )
    rem = _b6(c, _d5_variation(dist, a, b, g5a, g5b))
    cancel = _EPS / c * (np.abs(Ga) + np.abs(Gb))
    return np.where(some, s, 0.0), rem + cancel * some, (last - head) * some, g1a - g1b


def _direct(dist, y, c, k):
    """sum_{i=1..k} log F(y + c i), factor by factor in chunks of (y, i)."""
    if k > _MAX_HEAD:
        raise DriftRecordsError("the Euler-Maclaurin remainder of the infinite product"
                                " never met its budget")
    out = np.zeros_like(y)
    if k > 0:
        offsets = c * np.arange(1, k + 1, dtype=np.float64)
        step = max(1, _CHUNK_BUDGET // int(k))
        for i in range(0, y.shape[0], step):
            block = y[i:i + step]
            out[i:i + step] = dist.log_cdf(block[:, None] + offsets[None, :]).sum(axis=1)
    return out


def _live_max(up, x, tol):
    """The largest x over the live nodes, where e^up, a bound on the product,
    is at least eps tol times its largest value or the least normal double."""
    live = up >= max(np.fmax.reduce(up), _LOG_MIN) + math.log(_EPS * tol)
    return np.maximum.reduce(x, where=live, initial=0.0)


def _log_product(dist, y, c, m, start, tol):
    """sum_{i=1..m} log F(y + c i) for each y; m may be math.inf.

    Returns the sums, the number of leading factors summed directly and
    the largest log-space error bound over the ``_live_max`` nodes.  The
    head is the K = max(ceil((start - y0)/c) - 1, 0) factors below
    ``start`` (the ``_tail_threshold``, or +inf for none) at the lowest
    node y0, none at c = 0.  For c > 0 and at least ``_MIN_TAIL`` factors
    past K below a finite top, ``_em_tail`` sums them, unless its remainder
    and cancellation term pass tol/5 at a live node, m is finite and the
    midpoint sum k g(t) of its k factors at their mean argument t, which
    sums none of them directly, has a smaller error: the spread
    (c k^2/4)(g'(a) - g'(b)) at the tail's ends, a bound as g = log F is
    concave for every law.  At c = 0, with k = m, that sum is exact.
    Other products are summed directly, over 2**52 factors raising
    ``DriftRecordsError``; direct and midpoint sums S add eps |S|.
    """
    y0 = float(y.min())
    cap = _below_top(dist, c, y0) if c > 0.0 else math.inf
    # at c = 0 every argument is y, and the midpoint sum is exact
    head, mid = (0, (0.0, float(m), np.zeros_like(y), math.inf)) if c == 0.0 else (m, None)
    if start < math.inf:
        # q may overflow; a head clamped past 2**52 still raises below
        q = min(max((start - y0) / c, 1.0), _MAX_HEAD + 2.0)
        head = min(m, math.ceil(q) - 1)
    if c > 0.0 and m - head >= _MIN_TAIL and head < cap:
        direct = _direct(dist, y, c, head)
        tail, err, count, dg1 = _em_tail(dist, y, c, head, m)
        s = direct + tail
        worst = err.max()
        if worst > tol / 5.0:
            worst = _live_max(s + err, err, tol)
        if worst <= tol / 5.0 or m == math.inf:
            return s, head, worst
        mid = direct, count, dg1, worst
    if mid is not None and m > 0:
        direct, count, dg1, worst = mid
        t = direct + count * dist.log_cdf(y + c * (head + 0.5 * (count + 1.0)))
        spread = 0.25 * c * count * count * dg1
        # t <= 0: t + eps |t| is (1 - eps) t, also where t = -inf
        up = (1.0 - _EPS) * t + spread
        if _live_max(up, spread, tol) < worst:
            return t, head, _live_max(up, spread - _EPS * t, tol)
        return s, head, worst
    m = min(m, cap)  # every factor past the cap is 1 at every node
    s = _direct(dist, y, c, m)
    return s, int(m), _live_max((1.0 - _EPS) * s, -_EPS * s, tol)


def _record_integral(cfg, m, tol, weights=None):
    """int w(x) prod_{i=1..m} F(x + c i - delta) dx for m >= 0 or m = inf,
    one ``ProbResult`` per ``Weight`` w in ``weights``.

    The weights default to ``_density_weight``, f on its quantile window.
    All of them share one quadrature over the union of their windows, cut
    below where the product vanishes, with every weight's kinks as panel
    edges, and each integrand evaluation one ``_log_product``, its tail
    from the ``_tail_threshold`` for c > 0 and m > ``_MIN_TAIL``.  Each
    bound adds the quadrature gauge (at 0.8 tol), the mass f leaves
    outside its window, and what the log-product's errors add.  A
    ``QuadratureError`` names the caller's tol.
    """
    require_positive(tol=tol)
    dist, c, delta = cfg.dist, cfg.c, cfg.delta
    f, cut = _density_weight(dist)
    ws = (f,) if weights is None else tuple(weights)
    floor = min(w.lo for w in ws)
    lo = max(floor, _product_cutoff(dist, c, delta, m))
    hi = max(w.hi for w in ws)
    if lo >= hi:
        # the product vanishes on the window, so each value is 0 within
        # the mass f leaves outside its window
        return tuple(ProbResult(0.0, cut, 0) for _ in ws)

    start = _tail_threshold(dist, c, tol / 10.0) if c > 0.0 and m > _MIN_TAIL else math.inf
    head, eps = 0, 0.0

    def integrand(x):
        nonlocal head, eps
        with np.errstate(over="ignore"):
            log_product, h, e = _log_product(dist, x - delta, c, m, start, tol)
            product = np.exp(log_product)
        head, eps = max(head, h), max(eps, e)
        out = np.empty((len(ws),) + x.shape)
        for row, w in zip(out, ws):
            np.multiply(product, w.fn(x), out=row)
        return out

    breaks = np.concatenate((
        _product_kinks(dist, c, delta, m, lo, hi),
        *(w.kinks for w in ws),
        _cutoff_edges(dist, lo) if lo > floor else (),
    ))
    try:
        values, errs = integrate(integrand, lo, hi, 0.8 * tol, breaks=breaks)
    except QuadratureError as exc:
        # name the caller's tol, not the quadrature's share of it
        raise QuadratureError(
            f"tol {tol:g} cannot be met: the quadrature gets 0.8 of it, and {exc}",
            exc.best_estimate, exc.error_bound,
        ) from None
    # each node's integrand is off by a factor within exp(+-eps), so an
    # integral p is off by at most expm1(eps) p, and p is at most
    # (value + err) / (1 - expm1(eps))
    grow = math.expm1(eps)
    out = []
    for value, err in zip(values.tolist(), errs.tolist()):
        value = min(max(value, 0.0), 1.0)
        out.append(ProbResult(value, err + cut + (value + err) * grow / (1.0 - grow), head))
    return tuple(out)


def p_n_delta(cfg: LdmConfig, n: int, tol: float = DEFAULT_TOL) -> ProbResult:
    """Probability that observation ``n`` is a delta-record.

    Observation 1 is a delta-record by convention, so ``n=1`` returns 1
    exactly.  Otherwise the defining integral is evaluated to within
    ``tol`` by adaptive quadrature, with the finite product accumulated in
    log space.  A ``tol`` under the quadrature's rounding floor, about
    1.4e-14 times the probability, cannot be met and raises
    ``QuadratureError`` after the first quadrature pass.
    """
    require_int("n", n, 1)
    require_positive(tol=tol)
    if n == 1:
        return ProbResult(1.0, 0.0, 0)
    return _record_integral(_standard(cfg), n - 1, tol)[0]


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
    For zero trend on the law's standard member (finite upper endpoint,
    negative delta) the limit equals the closed form 1 - F(x_sup + delta),
    whose bound covers the rounding of that form in double precision.  For
    positive trend the infinite product is the same log-product as for p_n
    with no last factor: its Euler-Maclaurin tail runs to infinity, so
    nothing is truncated.  The floor on ``tol`` is that of ``p_n_delta``.
    """
    require_positive(tol=tol)
    cfg = _standard(cfg)
    if not classify_positivity(cfg):
        return ProbResult(0.0, 0.0, 0)

    dist, c, delta = cfg.dist, cfg.c, cfg.delta
    if c == 0.0:
        x = dist.support[1] + delta
        cdf = float(dist.cdf(x))
        value = min(max(1.0 - cdf, 0.0), 1.0)
        # rounding x moves F by at most |x| f(x) eps/2; a cdf of a few
        # roundings, as the uniform one is, and 1 - F add at most 3 eps/2
        # of F and eps/2 of the value
        slope = abs(x) * float(dist.pdf(x))
        bound = sys.float_info.epsilon * (slope + 2.0 * cdf + value)
        return ProbResult(value, bound, 0)
    return _record_integral(cfg, math.inf, tol)[0]


def classify_finiteness(cfg: LdmConfig, tol: float = DEFAULT_TOL) -> FinitenessVerdict:
    """Decide whether the model yields finitely many delta-records.

    Finite exactly when: the trend is negative with a finite right-tail
    mean; or the trend is zero, delta > 0, and the survival-ratio integral
    int (1-F(x+delta)) / (1-F(x))^2 f(x) dx over x >= 0 converges; or the
    trend is positive and delta - c covers the support span.  Whether the
    zero-trend integral converges is a fact of the law's tail, its
    ``tail_info().zero_trend_finite``.  Only a Finite verdict asks the law
    for the integral, its ``zero_trend_integral``, to report as
    ``integral_value``: exact for uniform noise, and within ``tol`` times
    the value for normal noise.  It asks the law itself, not its member:
    that integral's limit x >= 0 moves with the law's location.
    """
    require_positive(tol=tol)
    dist, c, delta = cfg.dist, cfg.c, cfg.delta
    lo, hi = dist.support
    tail = dist.tail_info()
    if math.isinf(tail.mu_plus):
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
    if not tail.zero_trend_finite:
        return FinitenessVerdict(INFINITE, REASON_ZERO_TREND_DIVERGES)
    value = dist.zero_trend_integral(delta, tol)
    return FinitenessVerdict(ALMOST_SURELY_FINITE, REASON_ZERO_TREND_CONVERGES, value)
