"""Joint probability and dependence index of consecutive delta-records.

The joint probability P[observations n and n+1 are both delta-records]
splits on the sign of delta.  For delta >= 0 the later observation must
top the earlier one, which collapses the event to a single integral; for
delta < 0 a second term appears where observation n+1 lands inside the
length-|delta| window below observation n, and that term carries an inner
integral over the window.  The dependence index divides the joint
probability by the product of the marginal record probabilities: values
above 1 mean attraction, below 1 repulsion.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import DriftRecordsError, IllConditionedError
from .probability import (
    DEFAULT_TOL,
    LdmConfig,
    _log_product,
    _product_cutoff,
    _quantile_window,
    _TailLedger,
    p_n_delta,
)
from .quadrature import integrate

BRANCH_NEGATIVE = "NegativeDelta"
BRANCH_NONNEGATIVE = "NonnegativeDelta"


@dataclass(frozen=True)
class JointProbResult:
    """Joint record probability for consecutive indices with its error
    bound and the sign branch that produced it."""

    value: float
    abs_error_bound: float
    branch: str


@dataclass(frozen=True)
class DependenceIndexResult:
    """Dependence index with the quantities it was assembled from."""

    value: float
    abs_error_bound: float
    joint: JointProbResult
    p_n: float
    p_n1: float


def joint_prob_consecutive(
    cfg: LdmConfig, n: int, tol: float = DEFAULT_TOL
) -> JointProbResult:
    """P[observations n and n+1 are both delta-records].

    delta >= 0 needs one adaptive quadrature; delta < 0 nests an adaptive
    quadrature (at tol/10) over the window (s - c + delta, s - c) inside
    the outer one, and the inner budget is added to the error bound.  Both
    branches take their products from the log-product engine of
    ``p_n_delta`` and add its Euler-Maclaurin remainder to the bound.
    """
    if n < 1:
        raise DriftRecordsError(f"n must be >= 1, got {n}")
    dist, c, delta = cfg.dist, cfg.c, cfg.delta
    supp_lo, supp_hi = dist.support
    lo, hi, cut = _quantile_window(dist)

    if delta >= 0.0:
        if n >= 2:
            lo = max(lo, _product_cutoff(dist, c, delta, n - 1))
        if lo >= hi:
            return JointProbResult(0.0, 0.0, BRANCH_NONNEGATIVE)
        tail = _TailLedger(tol / 10.0, lo - delta)
        shift = delta - c

        def integrand(s):
            with np.errstate(over="ignore"):
                later = np.exp(dist.log_sf(s + shift))
                product = np.exp(_log_product(dist, s - delta, c, n - 1, tail))
                return later * product * dist.pdf(s)

        value, err = integrate(integrand, lo, hi, 0.8 * tol)
        value = min(max(value, 0.0), 1.0)
        return JointProbResult(
            value, err + cut + tail.error(value, err), BRANCH_NONNEGATIVE
        )

    # outer products start at s - delta > lo, inner ones at
    # t + c - delta >= s >= lo
    tail = _TailLedger(tol / 10.0, lo)
    inner_tol = tol / 10.0
    if math.isfinite(supp_lo):
        j_min = 2 if c >= 0.0 else n
        inner_cutoff = supp_lo + delta - c * j_min if n >= 2 else supp_lo
        inner_cutoff = max(inner_cutoff, supp_lo)
    else:
        inner_cutoff = -math.inf

    def inner(s):
        t_lo = max(s - c + delta, inner_cutoff)
        t_hi = s - c
        if math.isfinite(supp_hi):
            t_hi = min(t_hi, supp_hi)
        if t_hi <= t_lo:
            return 0.0

        def fn(t):
            # factors j = 2..n are factors i = 1..n-1 of t + c
            with np.errstate(over="ignore"):
                product = np.exp(_log_product(dist, t + (c - delta), c, n - 1, tail))
                return product * dist.pdf(t)

        val, _ = integrate(fn, t_lo, t_hi, inner_tol)
        return val

    def integrand(s):
        with np.errstate(over="ignore"):
            term1 = np.exp(dist.log_sf(s - c)) * np.exp(
                _log_product(dist, s - delta, c, n - 1, tail)
            )
        term2 = np.fromiter((inner(float(v)) for v in s), np.float64, s.shape[0])
        return (term1 + term2) * dist.pdf(s)

    value, err = integrate(integrand, lo, hi, 0.8 * tol)
    value = min(max(value, 0.0), 1.0)
    err += inner_tol
    return JointProbResult(
        value, err + cut + tail.error(value, err), BRANCH_NEGATIVE
    )


def dependence_index_result(
    cfg: LdmConfig, n: int, tol: float = DEFAULT_TOL
) -> DependenceIndexResult:
    """Dependence index with its components and a first-order error bound."""
    pn = p_n_delta(cfg, n, tol)
    pn1 = p_n_delta(cfg, n + 1, tol)
    floor = 10.0 * tol
    if pn.value <= floor or pn1.value <= floor:
        raise IllConditionedError(
            "marginal record probabilities are too close to the tolerance "
            f"(p_n={pn.value:.3e}, p_n1={pn1.value:.3e}, floor={floor:.1e}); "
            "the index would be dominated by quadrature error"
        )
    joint = joint_prob_consecutive(cfg, n, tol)
    denom = pn.value * pn1.value
    value = joint.value / denom
    err = joint.abs_error_bound / denom + value * (
        pn.abs_error_bound / pn.value + pn1.abs_error_bound / pn1.value
    )
    return DependenceIndexResult(
        value=value,
        abs_error_bound=err,
        joint=joint,
        p_n=pn.value,
        p_n1=pn1.value,
    )


def dependence_index(cfg: LdmConfig, n: int, tol: float = DEFAULT_TOL) -> float:
    """Joint probability of consecutive delta-records over the product of
    the marginals; > 1 signals attraction, < 1 repulsion."""
    return dependence_index_result(cfg, n, tol).value
