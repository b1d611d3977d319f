"""Exact record-rate and dependence-index formulas for solvable noise laws.

Three families admit closed forms: the Gumbel law (record probabilities,
the limiting rate, and the limiting dependence index of consecutive
records), the unit-shape Dagum family with trend equal to scale (record
probabilities at threshold 0 and at threshold c, with their large-n
regimes), and the unit Pareto law with unit trend (record probability and
the finite-n dependence index).  These serve as oracles for the quadrature
engines and are exposed directly through the CLI.

The Pareto dependence-index expressions are transcribed case by case with
subexpression names (a, A, B, C) kept from the derivation, so each branch
can be audited term by term.
"""
from math import exp, expm1, gamma, log, log1p, sqrt

import numpy as np

from .errors import DriftRecordsError, require_finite, require_int, require_positive

# ---------------------------------------------------------------------------
# Gumbel noise, F(x) = exp(-exp(-x))
# ---------------------------------------------------------------------------


def gumbel_p_n_delta(c: float, delta: float, n: int) -> float:
    """Probability that observation n is a delta-record under Gumbel noise.

    For nonzero trend the defining integral telescopes to

        (1 - e^(-c)) / (1 - e^(-c) + e^delta (e^(-c) - e^(-nc))),

    and for zero trend to 1 / ((n-1) e^delta + 1).  The c > 0 branch
    writes e^(-c) - e^(-nc) as e^(-c) (1 - e^(-(n-1)c)) with expm1, so
    it tends to the zero-trend value as c -> 0.  The c < 0 branch
    evaluates the same ratio scaled by e^((n-1)c), with numerator and
    denominator both positive, so nothing overflows and an underflowed
    value is +0.0.
    """
    require_finite(c=c, delta=delta)
    require_int("n", n, 1)
    if n == 1:
        return 1.0
    if c == 0.0:
        if delta > 0.0:
            emd = exp(-delta)
            return emd / ((n - 1) + emd)
        return 1.0 / ((n - 1) * exp(delta) + 1.0)
    if c > 0.0:
        try:
            ed = exp(delta)
        except OverflowError:
            return 0.0
        num = -expm1(-c)
        return num / (num + ed * (exp(-c) * -expm1(-(n - 1) * c)))
    num = exp((n - 1) * c) * -expm1(c)
    try:
        den = num - exp(delta) * expm1((n - 1) * c)
    except OverflowError:
        return 0.0
    return num / den


def gumbel_p_delta(c: float, delta: float) -> float:
    """Limiting delta-record rate under Gumbel noise; 0 for c <= 0."""
    require_finite(c=c, delta=delta)
    if c <= 0.0:
        return 0.0
    num = -expm1(-c)
    try:
        tail = exp(delta - c)
    except OverflowError:
        return 0.0
    return num / (num + tail)


def gumbel_l_inf(c: float, delta: float) -> float:
    """Limiting dependence index of consecutive delta-records, Gumbel noise.

    Two closed-form branches meet at delta = 0 with value exactly 1:
    consecutive record indicators become asymptotically independent there,
    attract for delta < 0 and repel for delta > 0.
    """
    require_finite(c=c, delta=delta)
    if c <= 0.0:
        raise DriftRecordsError(f"requires a positive trend, got c={c}")
    if delta == 0.0:
        return 1.0
    # Both branches divide numerator and denominator by e^(2c), leaving
    # terms that neither overflow nor cancel for any c > 0.
    emc = exp(-c)
    if delta < 0.0:
        ed = exp(delta)
        num = (-expm1(-c) + ed * emc) * (1.0 + (1.0 - ed) * emc)
        return num / (-expm1(-2.0 * c) + ed * emc * emc)
    # With x = (e^delta - 1) e^(-c) the index is
    # (1 + x) / (1 + x + x e^(delta - c)) = 1 / (1 + e^t), formed in logs.
    lx = delta + log(-expm1(-delta)) - c
    t = lx + delta - c - (max(lx, 0.0) + log1p(exp(-abs(lx))))
    if t > 0.0:
        et = exp(-t)
        return et / (1.0 + et)
    return 1.0 / (1.0 + exp(t))


def gumbel_l_inf_argmax(c: float):
    """Threshold maximizing the limiting dependence index, and the maximum.

    The critical point solves d l_inf / d delta = 0 on delta < 0:

        delta* = log(1 - e^(2c) + sqrt(e^(4c) - e^(2c)))
        max    = 2 (e^(2c) - sqrt(e^(4c) - e^(2c)))

    Both are evaluated through the equivalent forms
    delta* = log1p(-1 / (1 + s)) and max = 2 / (1 + s) with
    s = sqrt(1 - e^(-2c)), which stay finite for every c > 0.
    """
    require_finite(c=c)
    if c <= 0.0:
        raise DriftRecordsError(f"requires a positive trend, got c={c}")
    s = sqrt(-expm1(-2.0 * c))
    delta_star = log1p(-1.0 / (1.0 + s))
    max_value = 2.0 / (1.0 + s)
    return delta_star, max_value


# ---------------------------------------------------------------------------
# Dagum noise with unit shape and trend equal to the scale parameter
# ---------------------------------------------------------------------------

from .quadrature import integrate as _integrate  # noqa: E402

_DAGUM_TOL = 1e-10

# Upper limit of the Dagum integrals in s.  Both integrands are below
# e^(-s/2), so the cut drops less than e^(-40) ~ 4e-18.
_DAGUM_S_MAX = 80.0


def dagum_p_n0(q: float, n: int) -> float:
    """Record probability at threshold 0 under unit-shape Dagum noise.

    Equals (q / (n-1)^q) * integral_1^n (y-1)^(q-1) / y dy, which is a Gauss
    hypergeometric value whose argument sits next to the singular point; the
    integral form is the stable route.  With t = (y-1)/(n-1) = e^(-s/q) it
    becomes

        integral_0^inf e^(-s) / (1 + (n-1) e^(-s/q)) ds,

    one smooth integrand for every q > 0: no endpoint singularity, no power
    that overflows, nothing that cancels.  The value does not depend on the
    trend.
    """
    require_finite(q=q)
    require_positive(q=q)
    require_int("n", n, 2)
    span = float(n - 1)

    def fn(s):
        return np.exp(-s) / (1.0 + span * np.exp(-s / q))

    val, _ = _integrate(fn, 0.0, _DAGUM_S_MAX, _DAGUM_TOL)
    return val


def dagum_p_n0_asymptotic(q: float, n: int) -> float:
    """Large-n regime of ``dagum_p_n0``: three ranges split at q = 1."""
    require_finite(q=q)
    require_positive(q=q)
    require_int("n", n, 2)
    if q < 1.0:
        return float(n) ** (-q) * q * gamma(1.0 - q) * gamma(q)
    if q == 1.0:
        return log(n) / n
    return q / (q - 1.0) / n


def dagum_p_n_delta_eq_c(q: float, n: int) -> float:
    """Record probability at threshold delta = c under unit-shape Dagum
    noise with trend equal to scale, for n > 2.

    Equals (q (n-1)^q / (n-2)^(2q)) * integral_1^(n-1) (y-1)^(2q-1) /
    y^(q+1) dy.  With t = (y-1)/(n-2) = e^(-s/(2q)) and d = 1 + (n-2) t it
    becomes

        1/2 integral_0^inf exp(q log((n-1)/d) - s) / d ds,

    one smooth integrand for every q > 0.  Since (n-1)/d <= 1/t the
    exponent stays below -s/2, so nothing overflows.
    """
    require_finite(q=q)
    require_positive(q=q)
    require_int("n", n, 3)
    width = float(n - 2)

    def fn(s):
        d = 1.0 + width * np.exp(-s / (2.0 * q))
        return 0.5 * np.exp(q * np.log((width + 1.0) / d) - s) / d

    val, _ = _integrate(fn, 0.0, _DAGUM_S_MAX, _DAGUM_TOL)
    return val


def dagum_p_n_delta_eq_c_asymptotic(q: float, n: int) -> float:
    """Large-n regime of ``dagum_p_n_delta_eq_c``.

    Matches the threshold-0 regime for q >= 1 but not for q in (0, 1),
    where the constant changes to Gamma(2q) Gamma(1-q) / Gamma(q)."""
    require_finite(q=q)
    require_positive(q=q)
    require_int("n", n, 3)
    if q < 1.0:
        return float(n) ** (-q) * gamma(2.0 * q) * gamma(1.0 - q) / gamma(q)
    if q == 1.0:
        return log(n) / n
    return q / (q - 1.0) / n


# ---------------------------------------------------------------------------
# Unit Pareto noise, F(x) = 1 - 1/x on x > 1, with unit trend
# ---------------------------------------------------------------------------

_PARETO_SINGULAR_WINDOW = 1e-5


def pareto_p_n_delta(delta: float, n: int) -> float:
    """Probability that observation n is a delta-record under unit Pareto
    noise with unit trend.

        ((n-1) log((n - min(1,delta)) / max(1,delta))
            - min(1,delta) (n-1-delta)) / (n-1-delta)^2,

    with the removable singularity at delta = n-1 filled by its limit
    1 / (2(n-1)).  Near that point the two numerator terms cancel almost
    exactly, so a small window around it returns the limit value instead.
    """
    require_finite(delta=delta)
    require_int("n", n, 2)
    if abs(delta - (n - 1)) < _PARETO_SINGULAR_WINDOW:
        return 1.0 / (2.0 * (n - 1))
    mn, mx = min(1.0, delta), max(1.0, delta)
    den = n - 1.0 - delta
    return ((n - 1) * log((n - mn) / mx) - mn * den) / (den * den)


def pareto_l_n(delta: float, n: int) -> float:
    """Dependence index of consecutive delta-records under unit Pareto
    noise with unit trend, for n > 2.

    Piecewise in delta with four closed-form branches (negative, (0,1),
    exactly 1, above 1).  The delta > 1 branch has removable singularities
    at n/2, n-1, n and n+1 where printed factors vanish; those points (and
    a +-1e-3 window around each) return the average of the branch evaluated
    at delta -+ 1e-3, which reproduces the continuous extension to about
    1e-7.  A narrower window fails: at n-1 and n the offending factors have
    double zeros and the formula loses all precision closer in.  Near
    delta = 1 the (0,1) branch cancels catastrophically, so a 1e-5 window
    routes to the delta = 1 formula.
    """
    require_finite(delta=delta)
    require_int("n", n, 3)
    if delta < 0.0:
        return _pareto_l_n_negative(delta, n)
    if abs(delta - 1.0) <= 1e-5:
        return _pareto_l_n_one(n)
    if delta < 1.0:
        return _pareto_l_n_unit_interval(delta, n)
    for s in (n / 2.0, float(n - 1), float(n), float(n + 1)):
        if abs(delta - s) < 1e-3 and s > 1.0 + 1e-3:
            # Interpolate across the window from its edges, where the
            # branch is still numerically clean; at delta = s this is the
            # plain average of the two edge values.
            left = _pareto_l_n_above_one(s - 1e-3, n)
            right = _pareto_l_n_above_one(s + 1e-3, n)
            w = (delta - (s - 1e-3)) / 2e-3
            return (1.0 - w) * left + w * right
    return _pareto_l_n_above_one(delta, n)


def _pareto_l_n_negative(delta, n):
    # delta < 0 branch: l_n = (B + C) / A with a = n - delta.
    a = n - delta
    A = (
        (delta - 2)
        * (delta * (1 - a) + (n - 1) * log(a))
        * (n * log(a + 1) - delta * a)
    )
    B = -(
        delta**3 * (n - 2)
        + delta
        - 2 * n**3
        - 2 * delta**2 * (n**2 - 2)
        + delta * (n - 1) * (n + 5) * n
        + n
        + 1
    ) * log(a + 1)
    C = (
        (a - 1) * log(a + 1 - delta)
        - (delta - 2) * a * (delta * (a - 1) ** 2 - (n - 1) * a * log(4 * a))
        + (1 - a) * log((a - delta + 1) * (a + 1))
    )
    return (B + C) / A


def _pareto_l_n_unit_interval(delta, n):
    # 0 <= delta < 1 branch: l_n = a^2 (B + C) / A with a = n - delta.
    a = n - delta
    A = (
        (delta - 1) ** 2
        * (delta - a)
        * (delta * (1 - a) + (n - 1) * log(a))
        * (-delta * a + n * log(a + 1))
    )
    B = (a - delta) * (
        (delta - 1)
        * (
            delta**2 * (a - 1)
            + (delta - 1) * (n - 1) * log((a - delta + 1) / ((2 - delta) * a))
        )
        - log(2 - delta) * (delta * (delta + 2) - 2 * delta * n + n - 1)
    )
    C = (delta - 1) ** 2 * (n - 1) * log(a - delta + 1)
    return a * a * (B + C) / A


def _pareto_l_n_one(n):
    # delta = 1: the unit-interval and above-one branches share this limit.
    num = (n - 1) ** 2 * ((n - 2) * n - 2 * (n - 1) * log(n - 1))
    den = (
        2
        * (n - 2)
        * (-n + (n - 1) * log(n - 1) + 2)
        * (-n + n * log(n) + 1)
    )
    return num / den


def _pareto_l_n_above_one(delta, n):
    # delta > 1 branch: l_n = a^2 (B + C) / (A1 A2) with a = n - delta.
    a = n - delta
    A1 = (
        (delta + log(delta) - n * log(delta) - n + (n - 1) * log(n - 1) + 1)
        * (delta - 1) ** 2
        * (delta - a)
    )
    A2 = delta - n * log(delta) - n + n * log(n)
    B = log(delta) * (
        2 * delta * (delta**2 + 2 * delta - 1)
        + (2 * delta - 1) * n**2
        - 5 * delta**2 * n
        + n
    )
    C = (delta - 1) ** 2 * (n - 1) * log(n - 1) - (a - 1) * (
        (delta - 1) * (delta - a)
        + (2 * delta - 1) * log(2 * delta - 1) * (a - 1)
    )
    return a * a * (B + C) / (A1 * A2)
