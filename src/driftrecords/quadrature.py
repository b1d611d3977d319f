"""Adaptive Gauss-Kronrod quadrature with vectorized integrands.

The integrand is called on a flat array of abscissae covering whole batches
of panels at once, which keeps the cost of product-form integrands (one cdf
evaluation per drift step per node) inside a handful of numpy calls.  It
may return k values per abscissa, as a (k, N) array, so k integrals that
share their costly part come from one set of calls.  Each panel carries
the classical |K15 - G7| error gauge per component, an estimate that is
conservative for smooth, well-resolved integrands but not a proof; the
panels with the largest gauge of any component are bisected in batches
until the summed gauge of every component meets the tolerance.
"""
import numpy as np

from .errors import QuadratureError

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# Full symmetric node/weight tables, nodes ascending.
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_WK = np.concatenate((_WGK[:-1], _WGK[::-1]))
_WGFULL = np.zeros(15)
_WGFULL[1:14:2] = np.concatenate((_WG[:-1], _WG[::-1]))

_INITIAL_PANELS = 16
_SPLIT_BATCH = 8


def _panel_rule(fn, lo, hi):
    """Evaluate G7/K15 on panels [lo[i], hi[i]] with one integrand call.

    Returns (kronrod values, error gauges) per panel, with a leading axis
    of length k when ``fn`` returns a (k, N) array.  A stack of panel
    rows, lo and hi of shape (windows, panels), gets one matrix-vector
    product per row, each the product one row alone would get.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[..., None] + half[..., None] * _NODES
    fx = np.asarray(fn(x.ravel()), dtype=np.float64)
    fx = fx.reshape(fx.shape[:-1] + x.shape)
    k15 = half * (fx @ _WK)
    g7 = half * (fx @ _WGFULL)
    return k15, np.abs(k15 - g7)


def _initial_edges(lo, hi, panels):
    # Wide positive ranges (heavy-tail supports cut at far quantiles)
    # start from a geometric grid so the mass near lo is resolved; on
    # [0, 2e12] equal panels would put all of a Dagum law's mass in the
    # first one, where the K15 - G7 gauge cannot see it.
    if lo > 0.0 and hi / lo > 100.0:
        return np.geomspace(lo, hi, panels + 1)
    if lo == 0.0 and hi > 100.0:
        return np.concatenate(([0.0], np.geomspace(hi * 1e-15, hi, panels)))
    return np.linspace(lo, hi, panels + 1)


def first_passes(fn, lo, hi):
    """The first pass of ``integrate`` on each window [lo[j], hi[j]],
    all from one integrand call.

    Returns (values, gauges), lists of floats: window j's value and
    summed error gauge before any bisection.  When the gauge meets a
    tolerance, ``integrate(fn, lo[j], hi[j], tol)`` returns exactly this
    value.  The windows must be finite and have no breaks.
    """
    edges = np.array([
        _initial_edges(float(a), float(b), _INITIAL_PANELS) for a, b in zip(lo, hi)
    ])
    vals, errs = _panel_rule(fn, edges[:, :-1], edges[:, 1:])
    # each row sums like integrate's 1-d panel array; an empty window
    # gives 0, 0 as integrate does
    full = np.asarray(hi) > np.asarray(lo)
    return (np.where(full, vals.sum(axis=1), 0.0).tolist(),
            np.where(full, errs.sum(axis=1), 0.0).tolist())


def integrate(fn, lo, hi, tol, max_intervals=4096, breaks=()):
    """Integrate ``fn`` over the finite interval [lo, hi].

    ``fn`` maps a 1-d array of N points to N integrand values, or to a
    (k, N) array of k integrands at once.  ``breaks`` lists points where
    an integrand has a kink; those inside (lo, hi) become panel edges, so
    no panel straddles one.  Returns ``(value, error_bound)``, floats for
    a 1-d integrand and arrays of length k otherwise, with every
    ``error_bound <= tol``; raises QuadratureError carrying the best
    estimates when the panel budget is exhausted first.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise QuadratureError(f"integration limits must be finite, got [{lo}, {hi}]")
    if hi <= lo:
        return 0.0, 0.0

    edges = _initial_edges(float(lo), float(hi), _INITIAL_PANELS)
    breaks = np.asarray(breaks, dtype=np.float64)
    breaks = breaks[(breaks > lo) & (breaks < hi)]
    if breaks.size:
        edges = np.union1d(edges, breaks)
    los, his = edges[:-1], edges[1:]
    vals, errs = _panel_rule(fn, los, his)
    scalar = vals.ndim == 1
    # (k, panels) from here on; a 1-d integrand is the case k = 1
    vals, errs = vals.reshape(-1, los.shape[0]), errs.reshape(-1, los.shape[0])

    while errs.sum(axis=1).max() > tol:
        if los.shape[0] + _SPLIT_BATCH > max_intervals:
            value, err = vals.sum(axis=1), errs.sum(axis=1)
            raise QuadratureError(
                f"needed more than {max_intervals} panels for tolerance {tol:g}",
                best_estimate=float(value[0]) if scalar else value,
                error_bound=float(err[0]) if scalar else err,
            )
        k = min(_SPLIT_BATCH, los.shape[0])
        worst = np.argpartition(errs.max(axis=0), -k)[-k:]
        mids = 0.5 * (los[worst] + his[worst])
        new_lo = np.concatenate((los[worst], mids))
        new_hi = np.concatenate((mids, his[worst]))
        new_vals, new_errs = _panel_rule(fn, new_lo, new_hi)
        keep = np.ones(los.shape[0], dtype=bool)
        keep[worst] = False
        los = np.concatenate((los[keep], new_lo))
        his = np.concatenate((his[keep], new_hi))
        vals = np.concatenate((vals[:, keep], new_vals.reshape(vals.shape[0], -1)), axis=1)
        errs = np.concatenate((errs[:, keep], new_errs.reshape(vals.shape[0], -1)), axis=1)

    value, err = vals.sum(axis=1), errs.sum(axis=1)
    if scalar:
        return float(value[0]), float(err[0])
    return value, err
