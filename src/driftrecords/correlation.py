"""Joint probability and dependence index of consecutive delta-records.

The joint probability P[observations n and n+1 are both delta-records]
is one record integral for either sign of delta.  For delta >= 0 the
later observation must top the earlier one by delta.  For delta < 0 a
second term appears where observation n+1 lands inside the
length-|delta| window below observation n; its integral over
observation n is a difference of survival functions, and shifting its
variable by the trend makes both terms share one product.  So the joint
probability is ``probability._record_integral`` with its own weight, and
its bound has the same three parts as that of p_n.  The dependence index
divides the joint probability by the product of the marginal record
probabilities, which share its product, so all three come from one
quadrature: values above 1 mean attraction, below 1 repulsion.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import DriftRecordsError, IllConditionedError
from .probability import DEFAULT_TOL, LdmConfig, ProbResult, _record_integral

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


def _joint_weight(cfg):
    """The joint probability's weight, window reach and weight kinks."""
    dist, c, delta = cfg.dist, cfg.c, cfg.delta
    window = delta < 0.0
    d_plus = max(delta, 0.0)
    pdf, log_sf = dist.pdf, dist.log_sf

    def weight(u):
        out = pdf(u) * np.exp(log_sf(u + (d_plus - c)))
        if window:
            out += pdf(u - c) * (np.exp(log_sf(u)) - np.exp(log_sf(u - delta)))
        return out

    shifts = [c - d_plus] + ([c, 0.0, delta] if window else [])
    kinks = [e + s for e in dist.support if math.isfinite(e) for s in shifts]
    return weight, (c if window else 0.0), kinks


def _joint_result(cfg, res):
    branch = BRANCH_NEGATIVE if cfg.delta < 0.0 else BRANCH_NONNEGATIVE
    return JointProbResult(res.value, res.abs_error_bound, branch)


def joint_prob_consecutive(
    cfg: LdmConfig, n: int, tol: float = DEFAULT_TOL
) -> JointProbResult:
    """P[observations n and n+1 are both delta-records].

    With S = 1 - F, d+ = max(delta, 0) and
    P(u) = prod_{i=1..n-1} F(u + c i - delta) the value is one integral,

        int P(u) [ f(u) S(u + d+ - c)
                   + 1{delta < 0} f(u - c) (S(u) - S(u - delta)) ] du.

    The second term is the window where observation n+1, at u - c, lands
    less than |delta| below observation n; the integral over observation
    n is done in closed form and u is observation n+1 plus the trend.  So
    this is the record integral of ``p_n_delta`` with the bracket as its
    weight, over a quantile window widened by c to cover f(u - c), with
    the weight's kinks as panel edges.  Its bound has the same three
    parts: the quadrature gauge, the mass outside the window (the bracket
    is a conditional probability of observation n), and what the
    Euler-Maclaurin remainders add.
    """
    if n < 1:
        raise DriftRecordsError(f"n must be >= 1, got {n}")
    weight, reach, kinks = _joint_weight(cfg)
    (res,) = _record_integral(cfg, n - 1, tol, (weight,), reach, kinks)
    return _joint_result(cfg, res)


def dependence_index_result(
    cfg: LdmConfig, n: int, tol: float = DEFAULT_TOL
) -> DependenceIndexResult:
    """Dependence index with its components and a first-order error bound.

    p_n, p_{n+1} and the joint probability share the product
    P(x) = prod_{i=1..n-1} F(x + c i - delta), so they are one record
    integral with three weights: f for p_n, f F(x + c n - delta) for
    p_{n+1}, and the bracket of ``joint_prob_consecutive`` for the joint.
    One quadrature and one log-product per integrand evaluation serve
    all three.  Where the extra factor of p_{n+1} switches on or reaches
    1 (a finite support endpoint minus c n - delta) is a panel edge.
    p_1 is 1 exactly.  The bound adds the joint's relative bound to the
    relative bounds of both marginals, to first order.
    """
    if n < 1:
        raise DriftRecordsError(f"n must be >= 1, got {n}")
    dist, shift = cfg.dist, cfg.c * n - cfg.delta
    pdf, cdf = dist.pdf, dist.cdf
    weight, reach, kinks = _joint_weight(cfg)
    kinks += [e - shift for e in dist.support if math.isfinite(e)]
    pn, pn1, joint = _record_integral(
        cfg, n - 1, tol, (pdf, lambda x: pdf(x) * cdf(x + shift), weight), reach, kinks
    )
    if n == 1:
        pn = ProbResult(1.0, 0.0, 0)
    floor = 10.0 * tol
    if pn.value <= floor or pn1.value <= floor:
        raise IllConditionedError(
            "marginal record probabilities are too close to the tolerance "
            f"(p_n={pn.value:.3e}, p_n1={pn1.value:.3e}, floor={floor:.1e}); "
            "the index would be dominated by quadrature error"
        )
    joint = _joint_result(cfg, joint)
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
