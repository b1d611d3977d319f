"""Standard normal helpers used by several modules.

The quantile is Wichura's PPND16 rational approximation (algorithm AS 241),
accurate to about 1e-15 over (0, 1).  We deliberately use the same quantile
for inverse-transform sampling and for confidence intervals, so every normal
variate in the package flows through one deterministic code path.  It works
through its input one Monte Carlo block at a time, so beside its output it
holds about two blocks of scratch, and it gathers only the tail points.

``log_ndtr_odd_derivatives`` gives g = log Phi its first, third and fifth
derivatives in one call, and ``log_ndtr_integral`` its antiderivative: the
Euler-Maclaurin tail of the record-probability log-product needs both for
normal noise.  ``log_ndtr_d1`` is g' alone.
"""
import functools
import math

import numpy as np
from scipy import special as _sc

from ._kernels import BLOCK_VALUES

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


def _horner(coef, r, out):
    """sum of coef[k] r**k into out, by Horner's rule."""
    np.multiply(r, coef[-1], out=out)
    for c in coef[-2:0:-1]:
        out += c
        out *= r
    out += coef[0]
    return out


def _ratpoly(coef_num, coef_den, r):
    num = _horner(coef_num, r, np.empty_like(r))
    num /= _horner(coef_den, r, np.empty_like(r))
    return num


def _tails(p, out, tail):
    """Overwrite out[tail] with the tail branches of PPND16 at p[tail]."""
    pt = p[tail]
    with np.errstate(divide="ignore"):
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    # the r <= 5 branch runs on every tail point, with r clamped so that
    # p = 0 or 1 (r = inf) stays finite; the rare rest (p under 1.4e-11
    # from an end, and NaN) is overwritten from its own branch
    x = _ratpoly(_C, _D, np.minimum(r, 5.0) - 1.6)
    far = np.flatnonzero(~(r <= 5.0))
    if far.size:
        rf = r[far]
        with np.errstate(invalid="ignore"):
            x[far] = np.where(np.isinf(rf), np.inf, _ratpoly(_E, _F, rf - 5.0))
    np.negative(x, out=x, where=pt < 0.5)
    out[tail] = x


def norm_quantile(p):
    """Inverse standard normal cdf, vectorized.

    Works through its input in pieces of ``BLOCK_VALUES``.  On a piece,
    the central rational function runs on every point straight into the
    output, with two scratch arrays that every piece reuses; then only the
    tail points (|p - 0.5| > 0.425, and NaN), found by ``np.flatnonzero``,
    are overwritten.  So a call holds its output and about two pieces,
    and every point gets the operations, in the same order, that the
    branch it falls in would give it on its own.

    Parameters
    ----------
    p : float or ndarray
        Probabilities in [0, 1].  Endpoints map to -inf/+inf.

    Returns
    -------
    float or ndarray
    """
    p_arr = np.asarray(p, dtype=float)
    out = np.empty(p_arr.shape)
    flat_p, flat_out = p_arr.reshape(-1), out.reshape(-1)
    size = flat_p.shape[0]
    r_buf, t_buf = np.empty((2, min(size, BLOCK_VALUES)))
    for lo in range(0, size, BLOCK_VALUES):
        pp = flat_p[lo:lo + BLOCK_VALUES]
        q = flat_out[lo:lo + BLOCK_VALUES]
        r, t = r_buf[:pp.shape[0]], t_buf[:pp.shape[0]]
        np.subtract(pp, 0.5, out=q)
        np.abs(q, out=r)
        tail = np.flatnonzero(~(r <= 0.425))
        if tail.size < pp.shape[0]:
            # q (num / den) at r = 0.180625 - q^2; den takes q's place,
            # and q is formed again after
            np.multiply(q, q, out=r)
            np.subtract(0.180625, r, out=r)
            _horner(_A, r, t)
            np.divide(t, _horner(_B, r, q), out=t)
            np.subtract(pp, 0.5, out=q)
            q *= t
        if tail.size:
            _tails(pp, q, tail)
    return float(out) if p_arr.ndim == 0 else out


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


def log_ndtr_odd_derivatives(z):
    """(g'(z), g'''(z), g^(5)(z)) from r = g' and d = z + r, using r' = -r d:

        g'''  = r (d (d + r) - 1), positive everywhere,
        g^(5) = r (d^4 + 11 d^3 r + 11 d^2 r^2 - 6 d^2 + d r^3 - 13 d r
                - r^2 + 3).

    The closed forms run on every point; on the points left of _Z_LEFT
    only, r is taken at z itself and the Mills series replaces both, so a
    call without such points skips the series.  Just right of z = -12 the
    terms of g^(5) cancel to about 1e-6 of the value.  That value feeds a
    correction scaled by c^5 / 30240 and a variation bound, for which that
    is ample.
    """
    z = np.asarray(z, dtype=float)
    zc = np.clip(z, _Z_LEFT, 40.0)  # r underflows to 0 beyond 38
    r = np.asarray(log_ndtr_d1(zc))
    d = zc + r
    d3 = np.asarray(r * (d * (d + r) - 1.0))
    d5 = np.asarray(r * (
        d * (d * (d * (d + 11.0 * r) + 11.0 * r * r - 6.0) + r * (r * r - 13.0))
        - r * r + 3.0
    ))
    left = z < _Z_LEFT
    if left.any():
        s = -z[left]

        def series(order):
            def term(k, bk):
                for i in range(order):
                    bk = bk * (2 * k + i)
                return bk / s ** (2 * k + order)

            return math.factorial(order - 1) / s**order + sum(
                term(k, bk) for k, bk in enumerate(_MILLS_LOG, start=1)
            )

        r[left] = log_ndtr_d1(z[left])
        with np.errstate(over="ignore"):
            d3[left] = series(3)
            d5[left] = series(5)
    return r, d3, d5


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
