"""Regenerate reference.json, the stored references of the default seed.

    PYTHONPATH=src python3 perfbench/make_reference.py [--passes 6] [--jobs 2]

Quadrature references cover every call of the first ``--passes`` quad
passes that has no closed form at its parameters.  They are computed
independently of the package: the noise laws are written out again
below, the integrals are taken in probability space (x = Q(u), so
f(x) dx = du on [0, 1]) with scipy's QUADPACK, and the bound stored with
each value is QUADPACK's error estimate plus the truncation of infinite
products.  The consecutive-record joint probability uses

    J = int f(s) [ sf(s - c + max(delta, 0)) G(s + c n - delta)
                   + int_{s - c + delta}^{s - c} f(t) G(t + c (n + 1) - delta) dt ] ds,

with G(y) = prod_{i<n} F(y - c i); the inner term exists only for
delta < 0.  Monte Carlo references are digests of the package's own
output on the default seed, which must reproduce bit for bit.
"""
import argparse
import concurrent.futures
import json
import math
import multiprocessing
import os
import shutil
import sys
import tempfile
import warnings

import numpy as np
from scipy import integrate, special

HERE = os.path.dirname(os.path.abspath(__file__))

_EPSABS = 1e-14
_EPSREL = 1e-12
_LIMIT = 2000
_CHUNK = 1 << 16
_TRUNC_SLACK = 1e-15


def _clip01(y):
    return np.clip(y, 0.0, 1.0)


def _pos(y):
    return np.maximum(y, 1e-300)


# Per law: log F, survival function, quantile, and the point beyond which
# (1/c) * sum of -log F over the remaining factors is below 1e-16 (for
# the infinite product; None when p = 0 has a closed form).  ENDS holds
# the finite support endpoints (lower, upper), where F has a kink.
ENDS = {"normal": (None, None), "gumbel": (None, None), "pareto1": (1.0, None),
        "dagum": (0.0, None), "uniform": (0.0, 1.0), "exp": (0.0, None)}
_MAX_BREAKS = 5000
LAWS = {
    "normal": (special.log_ndtr, lambda y: special.ndtr(-y), special.ndtri,
               lambda c: 9.5),
    "gumbel": (lambda y: -np.exp(-y), lambda y: -np.expm1(-np.exp(-y)),
               lambda u: -np.log(-np.log(u)), lambda c: 38.0 + math.log(1.0 / c)),
    "pareto1": (lambda y: np.where(y > 1.0, np.log1p(-1.0 / np.maximum(y, 1.0)), -np.inf),
                lambda y: np.where(y > 1.0, 1.0 / np.maximum(y, 1.0), 1.0),
                lambda u: 1.0 / (1.0 - u), None),
    "dagum": (lambda y: np.where(y > 0.0, -2.0 * np.log1p(1.0 / _pos(y)), -np.inf),
              lambda y: np.where(y > 0.0, -np.expm1(-2.0 * np.log1p(1.0 / _pos(y))), 1.0),
              lambda u: 1.0 / (u ** -0.5 - 1.0), None),
    "uniform": (lambda y: np.log(_clip01(y)), lambda y: _clip01(1.0 - y),
                lambda u: u, lambda c: 1.0),
    "exp": (lambda y: np.where(y > 0.0, np.log(-np.expm1(-_pos(y))), -np.inf),
            lambda y: np.where(y > 0.0, np.exp(-np.maximum(y, 0.0)), 1.0),
            lambda u: -np.log1p(-u), lambda c: 38.0 + math.log(1.0 / c)),
}


def _product(log_cdf, y0, c, first, last, delta):
    """prod_{j=first..last} F(y0 + c j - delta), stopping at underflow."""
    total = 0.0
    with np.errstate(divide="ignore"):
        for lo in range(first, last + 1, _CHUNK):
            j = np.arange(lo, min(lo + _CHUNK, last + 1), dtype=np.float64)
            total += float(np.sum(log_cdf(y0 + c * j - delta)))
            if total < -745.0:
                return 0.0
    return math.exp(total)


def _breaks(law, offsets, extra=(), lo=0.0, hi=1.0):
    """Points of (lo, hi) in probability space where the product of
    F(x + o) over ``offsets``, or a single factor F(x + o) over ``extra``,
    has a kink.  A product vanishes below its first factor's lower end,
    so only that lower kink counts; every factor's upper end counts."""
    log_cdf = LAWS[law][0]
    lower, upper = ENDS[law]
    offsets = np.asarray(offsets, dtype=np.float64)
    extra = np.asarray(extra, dtype=np.float64)
    xs = []
    if lower is not None:
        xs.append(lower - extra)
        if offsets.size:
            xs.append([lower - offsets.min()])
    if upper is not None:
        xs.append(upper - extra)
        xs.append(upper - offsets)
    xs = np.concatenate(xs) if xs else np.empty(0)
    with np.errstate(divide="ignore"):
        us = np.exp(log_cdf(xs))
    us = np.unique(us[(us > lo) & (us < hi)])
    if us.shape[0] > _MAX_BREAKS:
        us = us[:: math.ceil(us.shape[0] / _MAX_BREAKS)]
    return [lo, *us.tolist(), hi]


def _quad(fn, breaks=(0.0, 1.0), epsabs=_EPSABS):
    """Sum of QUADPACK values and error estimates over the pieces between
    ``breaks``; an estimate that QUADPACK itself flags as unreliable
    makes the bound infinite."""
    value = err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for a, b in zip(breaks, breaks[1:]):
            try:
                v, e = integrate.quad(fn, a, b, epsabs=epsabs, epsrel=_EPSREL, limit=_LIMIT)
            except integrate.IntegrationWarning:
                return math.nan, math.inf
            value += v
            err += e
    return value, err


def p_n(law, c, delta, n):
    log_cdf, _, quantile, _ = LAWS[law]
    if n == 1:
        return 1.0, 0.0
    offsets = c * np.arange(1, n) - delta
    return _quad(lambda u: _product(log_cdf, float(quantile(u)), c, 1, n - 1, delta),
                 _breaks(law, offsets))


def p_limit(law, c, delta):
    log_cdf, _, quantile, y_hi = LAWS[law]
    top = y_hi(c)

    def fn(u):
        x = float(quantile(u))
        last = max(1, math.ceil((top - x + delta) / c))
        return _product(log_cdf, x, c, 1, last, delta)

    lower = ENDS[law][0] or 0.0
    reach = min(max(1, math.ceil((top - lower + delta) / c)), 10 * _MAX_BREAKS)
    value, err = _quad(fn, _breaks(law, c * np.arange(1, reach + 1) - delta))
    return value, err + _TRUNC_SLACK


def joint(law, c, delta, n):
    log_cdf, sf, quantile, _ = LAWS[law]
    inner_err = [0.0]

    def cdf(y):
        with np.errstate(divide="ignore"):
            return math.exp(float(log_cdf(y)))

    def fn(u):
        s = float(quantile(u))
        out = float(sf(s - c + max(delta, 0.0))) * _product(log_cdf, s, c, 1, n - 1, delta)
        if delta < 0.0:
            v_lo, v_hi = cdf(s - c + delta), cdf(s - c)
            if v_hi > v_lo:
                val, err = _quad(
                    lambda v: _product(log_cdf, float(quantile(v)), c, 2, n, delta),
                    _breaks(law, c * np.arange(2, n + 1) - delta, (), v_lo, v_hi),
                    epsabs=_EPSABS / 10.0)
                out += val
                inner_err[0] = max(inner_err[0], err)
        return out

    extra = (-c + max(delta, 0.0), -c + delta, -c)
    value, err = _quad(fn, _breaks(law, c * np.arange(1, n) - delta, extra))
    return value, err + inner_err[0]


def reference(ref):
    """(value, bound) of one reference spec (quantity, law, c, delta, n)."""
    quantity, law, c, delta, n = ref
    if quantity == "p":
        return p_limit(law, c, delta)
    if quantity == "p_n":
        return p_n(law, c, delta, n)
    pn, e_pn = p_n(law, c, delta, n)
    pn1, e_pn1 = p_n(law, c, delta, n + 1)
    j, e_j = joint(law, c, delta, n)
    if pn <= 0.0 or pn1 <= 0.0:
        return math.inf, math.inf
    value = j / (pn * pn1)
    bound = e_j / (pn * pn1) + value * (e_pn / pn + e_pn1 / pn1)
    return value, bound


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=6)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import workloads
    from worker import SCRATCH

    seed = workloads.DEFAULT_SEED
    os.makedirs(SCRATCH, exist_ok=True)
    checker = workloads.Checker(seed, workloads.SMALL)  # no stored data
    inputs = workloads.QuadInputs(seed, workloads.FULL)
    specs = {}
    for k in range(args.passes):
        for call in workloads.quad_pass(inputs, checker, k):
            if call.ref is not None:
                specs[call.key] = call.ref

    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(args.jobs, mp_context=ctx) as pool:
        futures = {key: pool.submit(reference, ref) for key, ref in specs.items()}
        quad = {}
        for key, fut in futures.items():
            value, bound = fut.result()
            if math.isfinite(value) and math.isfinite(bound):
                quad[key] = {"ref": workloads.ref_id(specs[key]), "value": value, "bound": bound}

    mc = {}
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        wl = workloads.Workload("mc", seed, workloads.FULL, workdir)
        for call in wl.calls(0):
            res = call.fn()
            if call.after is not None:
                res = call.after(res)
            mc[call.key] = workloads.mc_digest(call.api, res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "seed": seed,
        "passes": args.passes,
        "method": "scipy.integrate.quad in probability space; see make_reference.py",
        "quad": quad,
        "mc": mc,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(quad)} quadrature and {len(mc)} Monte Carlo references; "
          f"{len(specs) - len(quad)} quadrature references were not reliable and are left out")


if __name__ == "__main__":
    sys.exit(main())
