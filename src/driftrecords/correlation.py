"""Joint probability and dependence index of consecutive delta-records.

The joint probability P[observations n and n+1 are both delta-records]
is one integral for either sign of delta.  For delta >= 0 the later
observation must top the earlier one by delta.  For delta < 0 a second
term appears where observation n+1 lands inside the length-|delta|
window below observation n; as a double integral over both
observations, its integral over observation n is a difference of
survival functions, so the term needs no inner quadrature.  The
dependence index divides the joint probability by the product of the
marginal record probabilities: values above 1 mean attraction, below 1
repulsion.
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
    _product_kinks,
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

    With S = 1 - F, d+ = max(delta, 0) and P(y) = prod_{i=1..n-1} F(y + c i)
    the value is one integral,

        int f(x) [ S(x + d+ - c) P(x - delta)
                   + 1{delta < 0} (S(x + c) - S(x + c - delta)) P(x + c - delta) ] dx.

    The second term is the window where observation n+1, at x, lands less
    than |delta| below observation n; the integral over observation n is
    done in closed form, so one quadrature serves both signs of delta.
    Both products come from the log-product engine of ``p_n_delta``, and
    the kinks of the integrand are panel edges.  The bound adds the
    quadrature gauge (at 0.8 tol), the mass outside the quantile window
    and what the Euler-Maclaurin remainders (each node within tol/10 in
    log space) add.
    """
    if n < 1:
        raise DriftRecordsError(f"n must be >= 1, got {n}")
    dist, c, delta = cfg.dist, cfg.c, cfg.delta
    window = delta < 0.0
    branch = BRANCH_NEGATIVE if window else BRANCH_NONNEGATIVE
    lo, hi, cut = _quantile_window(dist)
    if n >= 2:
        # both products vanish below this: the window product's own
        # cutoff lies below the support for c >= 0 and above this for c < 0
        lo = max(lo, _product_cutoff(dist, c, delta, n - 1))
    if lo >= hi:
        return JointProbResult(0.0, 0.0, branch)
    d_plus = max(delta, 0.0)
    tail = _TailLedger(tol / 10.0, lo - d_plus)

    def integrand(x):
        with np.errstate(over="ignore"):
            out = np.exp(dist.log_sf(x + (d_plus - c))
                         + _log_product(dist, x - delta, c, n - 1, tail))
            if window:
                gap = np.exp(dist.log_sf(x + c)) - np.exp(dist.log_sf(x + (c - delta)))
                out += gap * np.exp(_log_product(dist, x + (c - delta), c, n - 1, tail))
        return out * dist.pdf(x)

    shifts = [d_plus - c] + ([c, c - delta] if window else [])
    breaks = [e - s for e in dist.support if math.isfinite(e) for s in shifts]
    breaks.extend(_product_kinks(dist, c, delta, n - 1, lo, hi))
    if window:
        breaks.extend(_product_kinks(dist, c, delta - c, n - 1, lo, hi))
        # where the window product switches on; inside (lo, hi) for c < 0
        breaks.append(_product_cutoff(dist, c, delta - c, n - 1))
    value, err = integrate(integrand, lo, hi, 0.8 * tol, breaks=breaks)
    value = min(max(value, 0.0), 1.0)
    return JointProbResult(value, err + cut + tail.error(value, err), branch)


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
