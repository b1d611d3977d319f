"""Standard normal helpers used by several modules.

The quantile is scipy's ``ndtri``, within a few units in the last place
over (0, 1).  We deliberately use the same quantile for
inverse-transform sampling and for confidence intervals, so every normal
variate in the package flows through one deterministic code path.  It
is one ufunc call that holds only its output, or writes into the array
it is given, and releases the GIL for the whole array, so the threads of
the Monte Carlo pool overlap on it.

``log_ndtr_odd_derivatives`` gives g = log Phi its first, third and fifth
derivatives in one call, and ``log_ndtr_integral`` its antiderivative: the
Euler-Maclaurin tail of the record-probability log-product needs both for
normal noise.  ``log_ndtr_d1`` is g' alone.  Left of z = -12, g''', g^(5)
and the antiderivative each come from the Mills-ratio series in one
Horner pass in w = z^-2; the antiderivative's table on [-12, 8) runs on
its own points only, so a point's bits do not depend on the call's others.
"""
import functools
import math

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import special as _sc


def norm_quantile(p, out=None):
    """Inverse standard normal cdf, vectorized: ``scipy.special.ndtri``.

    Parameters
    ----------
    p : float or ndarray
        Probabilities in [0, 1].  Endpoints map to -inf/+inf, and NaN or
        a point outside [0, 1] to NaN.
    out : ndarray, optional
        A float64 array of p's shape, which may be p itself, to write
        the quantiles into.

    Returns
    -------
    float or ndarray
        ``out`` when given.  Otherwise a float for a float or a 0-d
        array, and a new array for an array, which is left unchanged.
    """
    x = _sc.ndtri(np.asarray(p, dtype=np.float64), out=out)
    if out is not None:
        return out
    return float(x) if np.ndim(x) == 0 else x


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


def _mills_rows(terms):
    """Coefficients in w = s^-2 of s^3 g''', s^5 g^(5) and the left tail's
    sum_k b_k w^k / (2k - 1), for g = -s^2/2 - log s - log sqrt(2 pi)
    + sum_k b_k w^k at z = -s, with sum_k b_k w^k = log(1 + sum_k a_k w^k)
    and a_k = (-1)^k (2k-1)!!."""
    a, b = [1.0], [0.0]
    d3, d5, prim = [2.0], [24.0], [0.0]
    for k in range(1, terms + 1):
        a.append(-a[-1] * (2 * k - 1))
        b.append((k * a[k] - sum(j * b[j] * a[k - j] for j in range(1, k))) / k)
        d3.append(b[k] * math.prod(range(2 * k, 2 * k + 3)))
        d5.append(b[k] * math.prod(range(2 * k, 2 * k + 5)))
        prim.append(b[k] / (2 * k - 1))
    return d3, d5, prim


_MILLS_D3, _MILLS_D5, _MILLS_PRIM = _mills_rows(22)


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
        t = -1.0 / z[left]
        w = t * t
        r[left] = log_ndtr_d1(z[left])
        d3[left] = t * w * polyval(w, _MILLS_D3)
        d5[left] = t * w * w * polyval(w, _MILLS_D5)
    return r, d3, d5


def _right_tail_integral(z):
    z = np.minimum(z, 40.0)  # phi and Q underflow to 0 beyond
    return norm_pdf(z) - z * _sc.ndtr(-z)


def _left_tail_integral(s0, s):
    """int_{-s}^{-s0} -log Phi for s >= s0 >= 12, from the series."""

    def prim(v):
        return (
            v**3 / 6.0 + v * np.log(v) - v + 0.5 * math.log(2.0 * math.pi) * v
            + v * polyval(1.0 / (v * v), _MILLS_PRIM)
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
        zt = z[table]
        k = np.minimum(((zt - _Z_LEFT) / _PANEL).astype(np.int64), edges.shape[0] - 2)
        right = edges[k + 1]
        half = 0.5 * (right - zt)
        pts = (0.5 * (right + zt))[:, None] + half[:, None] * x
        # a row sum, unlike `@ w`, keeps a row's bits whatever the row count
        out[table] = cum[k + 1] - half * (_sc.log_ndtr(pts) * w).sum(axis=1)
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
