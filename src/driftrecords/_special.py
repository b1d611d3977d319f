"""Standard normal helpers used by several modules.

The quantile is Wichura's PPND16 rational approximation (algorithm AS 241),
accurate to about 1e-15 over (0, 1).  We deliberately use the same quantile
for inverse-transform sampling and for confidence intervals, so every normal
variate in the package flows through one deterministic code path.

The ``log_ndtr_*`` helpers give g = log Phi its first, third and fifth
derivatives and its antiderivative, which the Euler-Maclaurin tail of the
record-probability log-product needs for normal noise.
"""
import functools
import math

import numpy as np
from scipy import special as _sc

_A = np.array([
    3.3871328727963666080e0, 1.3314166789178437745e2,
    1.9715909503065514427e3, 1.3731693765509461125e4,
    4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
])
_B = np.array([
    1.0, 4.2313330701600911252e1,
    6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
])
_C = np.array([
    1.42343711074968357734e0, 4.63033784615654529590e0,
    5.76949722146069140550e0, 3.64784832476320460504e0,
    1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
])
_D = np.array([
    1.0, 2.05319162663775882187e0,
    1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9,
])
_E = np.array([
    6.65790464350110377720e0, 5.46378491116411436990e0,
    1.78482653991729133580e0, 2.96560571828504891230e-1,
    2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
])
_F = np.array([
    1.0, 5.99832206555887937690e-1,
    1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15,
])


def _horner(coef, r):
    """sum of coef[k] r**k, by Horner's rule in place."""
    acc = np.full_like(r, coef[-1])
    for c in coef[-2::-1]:
        acc *= r
        acc += c
    return acc


def _ratpoly(coef_num, coef_den, r):
    num = _horner(coef_num, r)
    num /= _horner(coef_den, r)
    return num


def _horner_float(coef, r):
    """_horner on one Python float, with the same two roundings per step."""
    acc = coef[-1]
    for c in coef[-2::-1]:
        acc = acc * r + c
    return acc


_A_F, _B_F, _C_F, _D_F, _E_F, _F_F = (
    tuple(map(float, coef)) for coef in (_A, _B, _C, _D, _E, _F)
)


def _norm_quantile_float(p):
    """norm_quantile for one p in [0, 1], in Python floats.

    Every step is the array path's operation on one value: Horner with
    separate multiply and add, q * q for qc**2, and the tail logarithm
    through np.log, whose last bit can differ from math.log.
    """
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * (_horner_float(_A_F, r) / _horner_float(_B_F, r))
    r = math.sqrt(-float(np.log(min(p, 1.0 - p))))
    num, den, t = (_C_F, _D_F, r - 1.6) if r <= 5.0 else (_E_F, _F_F, r - 5.0)
    x = _horner_float(num, t) / _horner_float(den, t)
    return -x if p < 0.5 else x


def norm_quantile(p):
    """Inverse standard normal cdf, vectorized.

    A Python float in [0, 1] takes a pure-float path with the same bits
    as the array path; everything else goes through numpy.

    Parameters
    ----------
    p : float or ndarray
        Probabilities in [0, 1].  Endpoints map to -inf/+inf.

    Returns
    -------
    float or ndarray
    """
    if isinstance(p, float) and 0.0 <= p <= 1.0:
        return _norm_quantile_float(float(p))
    p_arr = np.asarray(p, dtype=float)
    scalar = p_arr.ndim == 0
    p_arr = np.atleast_1d(p_arr)
    out = np.empty_like(p_arr)

    q = p_arr - 0.5
    central = np.abs(q) <= 0.425
    if np.any(central):
        qc = q[central]
        out[central] = qc * _ratpoly(_A, _B, 0.180625 - qc**2)

    tail = ~central
    if np.any(tail):
        pt = p_arr[tail]
        with np.errstate(divide="ignore"):
            r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        # each rational function runs only on the points that select it;
        # NaN takes the r > 5 branch and r = inf (p at 0 or 1) neither
        x = np.full_like(r, np.inf)
        near = r <= 5.0
        far = ~near & ~np.isinf(r)
        for sel, num, den, shift in ((near, _C, _D, 1.6), (far, _E, _F, 5.0)):
            if np.any(sel):
                x[sel] = _ratpoly(num, den, r[sel] - shift)
        np.negative(x, out=x, where=pt < 0.5)
        out[tail] = x

    return float(out[0]) if scalar else out


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


# -- derivatives and antiderivative of g = log Phi ---------------------------

# g^(6) vanishes at the three points D5_EXTREMA_Z, where g^(5) takes the
# extreme values D5_EXTREMA (both from 40-digit mpmath roots of g^(6)).
# g^(5) rises from 0 at -inf to the first, falls to the second, rises to
# the third and falls to 0 at +inf, so its variation over an interval
# follows from the endpoint values and the extrema inside.
D5_EXTREMA_Z = (-0.8711321749891586931, 1.231332290351188464, 2.745639009716783928)
D5_EXTREMA = (0.04935929834021722445, -0.2508515921881164566, 0.1556466389105107952)

# Left of _Z_LEFT the closed forms cancel, and the asymptotic series of the
# Mills ratio M takes over: log(s M(s)) = sum_k b_k s^(-2k) for s = -z.
# With 22 terms it is exact to double precision for s >= 12.
_Z_LEFT = -12.0
# Right of _Z_RIGHT, log Phi = -Q - Q^2/2 - ... with Q < 7e-16, so
# int_z^inf -log Phi = phi(z) - z Q(z) to double precision.
_Z_RIGHT = 8.0
_PANEL = 0.25


def _mills_log_series(terms):
    """b_1..b_terms of log(1 + sum_k a_k w^k), a_k = (-1)^k (2k-1)!!."""
    a = [1.0]
    for k in range(1, terms + 1):
        a.append(-a[-1] * (2 * k - 1))
    b = [0.0]
    for k in range(1, terms + 1):
        acc = k * a[k] - sum(j * b[j] * a[k - j] for j in range(1, k))
        b.append(acc / k)
    return b[1:]


_MILLS_LOG = _mills_log_series(22)


def log_ndtr_d1(z):
    """g'(z) = phi(z) / Phi(z), without overflow in either tail."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        return math.sqrt(2.0 / math.pi) / _sc.erfcx(-z / math.sqrt(2.0))


def _log_ndtr_odd_derivative(z, order, closed):
    """g^(order)(z) for odd ``order``.

    ``closed(r, d)`` gives it from r = g' and d = z + r, using r' = -r d,
    and runs on every point; the Mills series replaces it on the points
    left of _Z_LEFT only, so a call without such points skips the series.
    """
    z = np.asarray(z, dtype=float)
    zc = np.clip(z, _Z_LEFT, 40.0)  # r underflows to 0 beyond 38
    r = log_ndtr_d1(zc)
    out = np.asarray(closed(r, zc + r))
    left = z < _Z_LEFT
    if left.any():
        s = -z[left]

        def term(k, bk):
            for i in range(order):
                bk = bk * (2 * k + i)
            return bk / s ** (2 * k + order)

        with np.errstate(over="ignore"):
            out[left] = math.factorial(order - 1) / s**order + sum(
                term(k, bk) for k, bk in enumerate(_MILLS_LOG, start=1)
            )
    return out


def log_ndtr_d3(z):
    """g'''(z) = r (d (d + r) - 1); positive everywhere."""
    return _log_ndtr_odd_derivative(z, 3, lambda r, d: r * (d * (d + r) - 1.0))


def log_ndtr_d5(z):
    """g^(5)(z) = r (d^4 + 11 d^3 r + 11 d^2 r^2 - 6 d^2 + d r^3 - 13 d r
    - r^2 + 3).

    Just right of z = -12 the terms cancel to about 1e-6 of the value.
    The value feeds a correction scaled by c^5 / 30240 and a variation
    bound, for which that is ample.
    """
    return _log_ndtr_odd_derivative(z, 5, lambda r, d: r * (
        d * (d * (d * (d + 11.0 * r) + 11.0 * r * r - 6.0) + r * (r * r - 13.0))
        - r * r + 3.0
    ))


def _right_tail_integral(z):
    z = np.minimum(z, 40.0)  # phi and Q underflow to 0 beyond
    return norm_pdf(z) - z * _sc.ndtr(-z)


def _left_tail_integral(s0, s):
    """int_{-s}^{-s0} -log Phi for s >= s0 >= 12, from the series."""

    def prim(v):
        return (
            v**3 / 6.0 + v * np.log(v) - v + 0.5 * math.log(2.0 * math.pi) * v
            - sum(bk * v ** (1 - 2 * k) / (1 - 2 * k)
                  for k, bk in enumerate(_MILLS_LOG, start=1))
        )

    return prim(s) - prim(s0)


@functools.lru_cache(maxsize=None)
def _integral_table():
    """Edges on [_Z_LEFT, _Z_RIGHT], H at each edge, where
    H(z) = int_z^inf -log Phi, summed panel by panel from the right, and
    the 10-point Gauss-Legendre rule for the part of a panel."""
    edges = np.arange(_Z_LEFT, _Z_RIGHT + 0.5 * _PANEL, _PANEL)
    x, w = np.polynomial.legendre.leggauss(16)
    mid = 0.5 * (edges[:-1] + edges[1:])
    panels = -0.5 * _PANEL * (_sc.log_ndtr(mid[:, None] + 0.5 * _PANEL * x) @ w)
    cum = np.empty(edges.shape[0])
    cum[-1] = _right_tail_integral(_Z_RIGHT)
    cum[:-1] = cum[-1] + np.cumsum(panels[::-1])[::-1]
    return edges, cum, np.polynomial.legendre.leggauss(10)


def log_ndtr_integral(z):
    """H(z) = int_z^inf -log Phi(t) dt, so H' = log Phi and H(+inf) = 0.

    A one-time cumulative Gauss-Legendre table covers [-12, 8]; inside a
    panel the part from z to the panel's right edge gets its own 10-point
    rule.  Left of the table the Mills-ratio series takes over, right of
    it phi(z) - z Q(z).  Each branch runs on its own points only; NaN
    maps to NaN and -inf to +inf.
    """
    z = np.asarray(z, dtype=float)
    edges, cum, (x, w) = _integral_table()
    out = np.full(z.shape, np.nan)
    table = (z >= _Z_LEFT) & (z < _Z_RIGHT)
    if table.any():
        # all points go through the matrix product, the others parked at
        # the left edge, because its last bit can depend on the row count
        zt = np.where(table, z, _Z_LEFT)
        k = np.minimum(((zt - _Z_LEFT) / _PANEL).astype(np.int64), edges.shape[0] - 2)
        right = edges[k + 1]
        half = 0.5 * (right - zt)
        pts = (0.5 * (right + zt))[..., None] + half[..., None] * x
        np.copyto(out, cum[k + 1] - half * (_sc.log_ndtr(pts) @ w), where=table)
    right = z >= _Z_RIGHT
    if right.any():
        out[right] = _right_tail_integral(z[right])
    left = z < _Z_LEFT
    if left.any():
        s = -z[left]
        # the series is evaluated at s <= 1e100, where it stays finite
        tail = cum[0] + _left_tail_integral(-_Z_LEFT, np.minimum(s, 1e100))
        out[left] = np.where(s == np.inf, np.inf, tail)
    return out
