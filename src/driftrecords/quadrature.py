"""Adaptive Gauss-Kronrod quadrature with vectorized integrands.

The integrand is called on a flat array of abscissae covering whole batches
of panels at once, which keeps the cost of product-form integrands (one cdf
evaluation per drift step per node) inside a handful of numpy calls.  It
may return k values per abscissa, as a (k, N) array, so k integrals that
share their costly part come from one set of calls.  Each panel carries
the classical |K15 - G7| error gauge per component, floored as in QUADPACK
at the rounding error of the sum, an estimate that is conservative for
smooth, well-resolved integrands but not a proof; the
panels with the largest gauge of any component are bisected in batches
until the summed gauge of every component meets the tolerance.

The first pass puts 16 equal panels on a window of moderate span.  A wide
positive window, such as a heavy-tailed support cut at far quantiles, gets
a geometric grid of ``_PANELS_PER_DECADE`` panels per decade instead, so
each panel spans at most a factor 10**(1/3) and one pass usually resolves
a density spread over a dozen decades.  When the summed floor of some
component already exceeds the tolerance after that pass, no bisection can
meet it, and the call raises at once.
"""
import math

import numpy as np

from .errors import QuadratureError

# 15-point Kronrod extension of 7-point Gauss on [-1, 1], QUADPACK's qk15
# values to 33 digits; the K15 weights round to doubles that sum to 2.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])

# Full symmetric node/weight tables, nodes ascending.
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_WK = np.concatenate((_WGK[:-1], _WGK[::-1]))
_WGFULL = np.zeros(15)
_WGFULL[1:14:2] = np.concatenate((_WG[:-1], _WG[::-1]))
# K15 and K15 - G7 as one matrix, and the weights of the gauge's floor
_RULES = np.stack((_WK, _WK - _WGFULL), axis=-1)
_FLOOR = 50.0 * np.finfo(np.float64).eps * _WK

_INITIAL_PANELS = 16
# 0..16, from which the equal first-pass grid is built without the
# 4 us that np.linspace costs a call
_EQUAL_EDGES = np.arange(_INITIAL_PANELS + 1, dtype=np.float64)
_PANELS_PER_DECADE = 3
_SPLIT_BATCH = 8

# Most panels one call may use before it gives up.
_MAX_INTERVALS = 4096


def _panel_rule(fn, lo, hi):
    """Evaluate G7/K15 on panels [lo[i], hi[i]] with one integrand call.

    Returns (kronrod values, error gauges, floors) per panel, with a
    leading axis of length k when ``fn`` returns a (k, N) array.  A floor
    is 50 eps times the panel's K15 integral of |f|, which the rounding of
    the sum can reach when K15 and G7 agree; a gauge is |K15 - G7|, but at
    least the floor.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[..., None] + half[..., None] * _NODES
    fx = np.asarray(fn(x.ravel()), dtype=np.float64)
    fx = fx.reshape(fx.shape[:-1] + x.shape)
    rules = fx @ _RULES
    floor = half * (np.abs(fx) @ _FLOOR)
    return half * rules[..., 0], np.maximum(half * np.abs(rules[..., 1]), floor), floor


def _geometric_edges(lo, hi):
    # logs, not hi / lo, which overflows for a subnormal lo; np.geomspace
    # gives the same grid but costs about 20 us
    log_lo, log_hi = math.log(lo), math.log(hi)
    decades = (log_hi - log_lo) / math.log(10.0)
    panels = max(_INITIAL_PANELS, math.ceil(_PANELS_PER_DECADE * decades))
    edges = np.exp(np.linspace(log_lo, log_hi, panels + 1))
    edges[0], edges[-1] = lo, hi
    return edges


def _initial_edges(lo, hi):
    # Wide positive ranges (heavy-tail supports cut at far quantiles)
    # start from a geometric grid so the mass near lo is resolved; on
    # [0, 2e12] equal panels would put all of a Dagum law's mass in the
    # first one, where the K15 - G7 gauge cannot see it.  The grid has
    # _PANELS_PER_DECADE panels per decade, not a fixed count: 16 panels
    # over Pareto's 12 decades or Dagum's 15 would each span a factor 6
    # to 10 and need two or three bisection rounds, each costing more in
    # fixed overhead than the extra first-pass nodes.  A window from 0
    # keeps [0, hi 1e-15] as its first panel.
    if lo > 0.0 and hi / lo > 100.0:
        return _geometric_edges(lo, hi)
    if lo == 0.0 and hi > 100.0:
        return np.concatenate(([0.0], _geometric_edges(hi * 1e-15, hi)))
    # np.linspace(lo, hi, 17) bit for bit: k step + lo, then hi exactly,
    # as numpy builds it
    edges = _EQUAL_EDGES * ((hi - lo) / _INITIAL_PANELS) + lo
    edges[-1] = hi
    return edges


def integrate(fn, lo, hi, tol, breaks=()):
    """Integrate ``fn`` over the finite interval [lo, hi].

    ``fn`` maps a 1-d array of N points to N integrand values, or to a
    (k, N) array of k integrands at once.  ``breaks`` lists points where
    an integrand has a kink; those inside (lo, hi) become panel edges, so
    no panel straddles one.  Returns ``(value, error_bound)``, floats for
    a 1-d integrand and arrays of length k otherwise, with every
    ``error_bound <= tol``.  Raises QuadratureError carrying the best
    estimates and their gauges when the first pass puts the summed
    rounding floor 50 eps int |f| of some component above tol, which no
    bisection can lower, or when the ``_MAX_INTERVALS`` panel budget is
    exhausted first.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise QuadratureError(f"integration limits must be finite, got [{lo}, {hi}]")
    if hi <= lo:
        return 0.0, 0.0

    edges = _initial_edges(float(lo), float(hi))
    breaks = np.asarray(breaks, dtype=np.float64)
    breaks = breaks[(breaks > lo) & (breaks < hi)]
    if breaks.size:
        edges = np.union1d(edges, breaks)
    los, his = edges[:-1], edges[1:]
    vals, errs, floors = _panel_rule(fn, los, his)
    scalar = vals.ndim == 1
    # (k, panels) from here on; a 1-d integrand is the case k = 1
    vals, errs = vals.reshape(-1, los.shape[0]), errs.reshape(-1, los.shape[0])

    def failure(message):
        value, err = vals.sum(axis=1), errs.sum(axis=1)
        return QuadratureError(
            message,
            best_estimate=float(value[0]) if scalar else value,
            error_bound=float(err[0]) if scalar else err,
        )

    floor = floors.reshape(vals.shape).sum(axis=1).max()
    if floor > tol:
        raise failure(f"tolerance {tol:g} is under the rounding floor {floor:.3g} "
                      f"(50 eps times the integral of |f|)")
    while errs.sum(axis=1).max() > tol:
        if los.shape[0] + _SPLIT_BATCH > _MAX_INTERVALS:
            raise failure(f"needed more than {_MAX_INTERVALS} panels for tolerance {tol:g}")
        k = min(_SPLIT_BATCH, los.shape[0])
        worst = np.argpartition(errs.max(axis=0), -k)[-k:]
        mids = 0.5 * (los[worst] + his[worst])
        new_lo = np.concatenate((los[worst], mids))
        new_hi = np.concatenate((mids, his[worst]))
        new_vals, new_errs, _ = _panel_rule(fn, new_lo, new_hi)
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
