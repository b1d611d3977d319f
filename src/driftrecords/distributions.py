"""Noise distributions for the linear drift model.

Six built-in families, each exposing exact closed-form cdf, log-cdf, pdf,
quantile, support endpoints, and right-tail moment metadata.  Support
endpoints and the right-tail mean are tabulated per family rather than
integrated numerically, because downstream classifiers branch on their
exact finiteness.  The two families whose zero-trend survival-ratio
integral converges also compute its value.

Each family also gives g = log F what the Euler-Maclaurin tail of the
record-probability log-product needs, for its standard member alone: the
antiderivative G and the odd derivatives g', g''' and g^(5), and the
extrema of g^(5).  These follow g's analytic form on the interior of the
support; at and above a finite upper endpoint every factor F is exactly
1, and the tail stops before it.
"""
import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, spence, xlogy

from . import _special
from ._special import norm_pdf, norm_quantile
from .errors import DriftRecordsError, QuadratureError, require_finite, require_positive
from .quadrature import integrate

# Right-tail mean of the standard Gumbel law, int_0^inf x f(x) dx.
# Equals int_0^1 (-log t) e^(-t) dt after t = exp(-x); cross-checked in tests
# against independent quadrature.
GUMBEL_MU_PLUS = 0.7965995992970531

_INF = math.inf

# Lower end, in standard units, of the normal survival-ratio integral:
# below it the integrand is under 4 phi(z), so what the cut leaves out is
# under 1e-340, below the smallest positive double.
_NORMAL_FLOOR_Z = -40.0


def _target(u, out):
    """u as a float64 array, and the array its quantiles go into: out,
    or a new array of u's shape."""
    u = np.asarray(u, dtype=np.float64)
    return u, (np.empty_like(u) if out is None else out)


def _result(x, out):
    """What ``quantile`` returns: out when given, else x, a 0-d x as a
    scalar."""
    return x[()] if out is None else out


def _log_ratio_odd_derivatives(a, b):
    """(g', g''', g^(5)) = (a - b, 2 (a^3 - b^3), 24 (a^5 - b^5)) of
    g = log(u - t) - log(u - t + 1), a = 1/(u - t) and b = 1/(u - t + 1),
    each as d = a - b = ab times a sum of positive terms, which cannot
    cancel: Pareto's g at t = 1, and Dagum's over q at t = 0."""
    d = a * b
    s = a * a + d + b * b
    return d, 2.0 * d * s, 24.0 * d * (a * a * a * a + d * s + b * b * b * b)


@dataclass(frozen=True)
class TailInfo:
    """Right-tail facts the finiteness classifiers branch on.

    ``mu_plus`` is the right-tail mean int_0^inf x f(x) dx (math.inf when
    divergent).  ``zero_trend_finite`` is whether the survival-ratio
    integral int_{x >= 0} S(x + delta) f(x) / S(x)^2 dx, S = 1 - F,
    converges for every delta > 0.
    """

    mu_plus: float
    zero_trend_finite: bool


class Distribution:
    """Common interface of the built-in noise laws.

    Subclasses provide vectorized ``log_cdf``, ``pdf``, ``quantile``,
    plus ``support``, ``tail_info`` and the Euler-Maclaurin data of
    g = log F of the ``standard`` member: ``log_cdf_em``, and
    ``d5_extrema``, the (u, g^(5)(u)) where g^(6) changes sign, from
    which the engine bounds g^(5)'s variation.  G, g', g''' and g^(5)
    vanish at +inf for every law, so callers take them as 0 there rather
    than ask.  ``cdf`` defaults to exp(log F), and a support that no
    parameter moves is a class constant.
    A law whose ``tail_info().zero_trend_finite`` holds also provides
    ``zero_trend_integral``.  All are immutable frozen dataclasses, safe
    to share across threads; their fields are the spec parameters.
    """

    kind = "abstract"
    d5_extrema = ()

    @property
    def support(self):
        """(lower, upper) endpoints of the support; may be +-inf."""
        raise NotImplementedError

    def cdf(self, x):
        return np.exp(self.log_cdf(x))

    def log_cdf(self, x):
        """log F(x), computed without evaluating F when F underflows."""
        raise NotImplementedError

    def log_sf(self, x):
        """log(1 - F(x)), computed without evaluating 1 - F when it
        underflows."""
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, u, out=None):
        """F^-1(u): a new array for an array u, which stays unchanged, and
        a float for a float.

        ``out``, when given, is a float64 array of u's shape, and may be
        u itself; the quantiles are written into it and it is returned,
        with the bits of the new array.  The Monte Carlo reductions take
        their quantiles this way, in the block of uniforms they own, and
        add the drift in place.

        It is monotone non-decreasing in u up to a few units in the last
        place (the normal quantile steps back by up to 4 ulps next to
        the branch points of ``ndtri``): ``asymptotic_variance_mc`` skips
        the burn-in values that cannot be a row's maximum by this rule,
        with a relative slack far above that."""
        raise NotImplementedError

    def tail_info(self) -> TailInfo:
        raise NotImplementedError

    def zero_trend_integral(self, delta, tol):
        """The survival-ratio integral of ``TailInfo`` at this delta > 0,
        to within tol; only laws whose integral converges provide it."""
        raise NotImplementedError

    def standard(self):
        """(member, scale): the law is a location plus scale times the member,
        whose record probabilities at c/scale and delta/scale are the law's."""
        return self, 1.0

    def log_cdf_em(self, u):
        """(G(u), g'(u), g'''(u), g^(5)(u)) of the standard member's
        g = log F: G an antiderivative of g with G(+inf) = 0 whenever g is
        integrable at +inf, and g' = pdf / cdf.  Each quantity is one
        formula on each branch of u, and no derivative's terms cancel but
        the normal closed forms' just right of z = -12 (see ``_special``)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Gumbel(Distribution):
    """Standard Gumbel law, F(x) = exp(-exp(-x)) on the whole line."""

    kind = "gumbel"
    support = (-_INF, _INF)

    def log_cdf(self, x):
        return -np.exp(-np.asarray(x, dtype=np.float64))

    def log_sf(self, x):
        x = np.asarray(x, dtype=np.float64)
        # beyond x ~ 700 the exact value is -x + log1p(-exp(-x)/2 + ...),
        # and the correction is below 1e-304; branching keeps the result
        # finite where exp(-x) itself would underflow to zero
        t = np.exp(-np.minimum(x, 700.0))
        with np.errstate(divide="ignore"):
            out = np.log(-np.expm1(-t))
        return np.where(x > 700.0, -x, out)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.exp(-x - np.exp(-x))

    def quantile(self, u, out=None):
        # -log(-log u)
        u, x = _target(u, out)
        with np.errstate(divide="ignore"):
            np.log(u, out=x)
            np.negative(x, out=x)
            np.log(x, out=x)
        np.negative(x, out=x)
        return _result(x, out)

    def tail_info(self):
        # the hazard f/S tends to 1
        return TailInfo(GUMBEL_MU_PLUS, False)

    def log_cdf_em(self, u):
        # g = -e^(-u): its antiderivative and its odd derivatives are e^(-u)
        t = np.exp(-np.asarray(u, dtype=np.float64))
        return t, t, t, t


@dataclass(frozen=True)
class ParetoUnit(Distribution):
    """Pareto law with F(x) = 1 - 1/x on x > 1; infinite right-tail mean."""

    kind = "pareto1"
    support = (1.0, _INF)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 1.0, 1.0 - 1.0 / np.maximum(x, 1.0), 0.0)

    def log_cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log1p(-1.0 / np.maximum(x, 1.0))
        return np.where(x > 1.0, out, -_INF)

    def log_sf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 1.0, -np.log(np.maximum(x, 1.0)), 0.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return np.where(x > 1.0, 1.0 / np.square(np.maximum(x, 1.0)), 0.0)

    def quantile(self, u, out=None):
        # 1 / (1 - u)
        u, x = _target(u, out)
        np.subtract(1.0, u, out=x)
        with np.errstate(divide="ignore"):
            np.divide(1.0, x, out=x)
        return _result(x, out)

    def tail_info(self):
        return TailInfo(_INF, False)

    def log_cdf_em(self, u):
        # G = (v - 1) log(1 - 1/v) - log v at v = max(u, 1)
        u = np.asarray(u, dtype=np.float64)
        v = np.maximum(u, 1.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            head = np.where(v > 1.0, (v - 1.0) * np.log1p(-1.0 / v), 0.0)
            odd = _log_ratio_odd_derivatives(1.0 / (u - 1.0), 1.0 / u)
        return (head - np.log(v), *odd)


@dataclass(frozen=True)
class Dagum(Distribution):
    """Dagum law with unit shape, F(x) = (1 + b/x)^(-q) on x > 0.

    The unit shape makes the right-tail mean infinite for every b, q > 0.
    """

    b: float = 1.0
    q: float = 1.0
    kind = "dagum"
    support = (0.0, _INF)

    def __post_init__(self):
        require_positive(b=self.b, q=self.q)

    def log_cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        xp = np.maximum(x, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.q * np.log1p(-self.b / (xp + self.b))
        return np.where(x > 0.0, out, -_INF)

    def log_sf(self, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(-np.expm1(self.log_cdf(x)))
        return np.where(x > 0.0, out, 0.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        xp = np.where(x > 0.0, x, 1.0)
        val = (
            self.q
            * self.b
            * np.exp(-(self.q + 1.0) * np.log1p(self.b / xp))
            / np.square(xp)
        )
        return np.where(x > 0.0, val, 0.0)

    def quantile(self, u, out=None):
        # b / expm1(-log(u) / q)
        u, x = _target(u, out)
        with np.errstate(divide="ignore"):
            np.log(u, out=x)
            np.negative(x, out=x)
            np.divide(x, self.q, out=x)
            np.expm1(x, out=x)
            np.divide(self.b, x, out=x)
        return _result(x, out)

    def tail_info(self):
        return TailInfo(_INF, False)

    def standard(self):
        return Dagum(1.0, self.q), self.b

    def log_cdf_em(self, u):
        # G = q (-v log(1 + 1/v) - log(v + 1)) at v = max(u, 0)
        u = np.asarray(u, dtype=np.float64)
        v = np.maximum(u, 0.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            head = np.where(v > 0.0, v * np.log1p(1.0 / v), 0.0)
            odd = _log_ratio_odd_derivatives(1.0 / u, 1.0 / (u + 1.0))
        return (-self.q * (head + np.log(v + 1.0)), *(self.q * x for x in odd))


@dataclass(frozen=True)
class Normal(Distribution):
    """Gaussian law with mean mu and standard deviation sigma."""

    mu: float = 0.0
    sigma: float = 1.0
    kind = "normal"
    support = (-_INF, _INF)
    d5_extrema = tuple(zip(_special.D5_EXTREMA_Z, _special.D5_EXTREMA))

    def __post_init__(self):
        require_finite(mu=self.mu)
        require_positive(sigma=self.sigma)

    def _z(self, x):
        return (np.asarray(x, dtype=np.float64) - self.mu) / self.sigma

    def cdf(self, x):
        return ndtr(self._z(x))

    def log_cdf(self, x):
        return log_ndtr(self._z(x))

    def log_sf(self, x):
        return log_ndtr(-self._z(x))

    def pdf(self, x):
        return norm_pdf(self._z(x)) / self.sigma

    def quantile(self, u, out=None):
        x = norm_quantile(u, out=out)
        x *= self.sigma
        x += self.mu
        return x

    def tail_info(self):
        z = self.mu / self.sigma
        mu_plus = self.mu * float(ndtr(z)) + self.sigma * float(norm_pdf(z))
        # the hazard f/S grows like x / sigma^2
        return TailInfo(mu_plus, True)

    def zero_trend_integral(self, delta, tol):
        """The survival-ratio integral, to within about tol times its value;
        a tol under about 2.5e-14 is below the quadrature's rounding floor
        and raises QuadratureError, which names this tol.

        In z = (x - mu) / sigma, with eps = delta / sigma and Q, phi and
        h = phi / Q the standard normal survival function, density and
        hazard, the integrand is Q(z + eps) phi(z) / Q(z)^2, which equals
        exp(-z eps - eps^2/2) h(z)^2 / h(z + eps).  Past z = 1 it takes that
        form with h from erfcx, since the log-space form cancels terms of
        size z^2/2 there; below, no large terms cancel and the log-space
        form stays.

        The window stops at a proven bound.  For z >= 0, h(z) < z + 1
        (Sampford) and h grows, so the integrand is below
        M(z) = (z + 1) exp(-z eps - eps^2/2), and what lies past Z is at
        most B(Z) = exp(-eps^2/2 - Z eps) ((Z + 1)/eps + 1/eps^2).  As also
        h(z) >= max(z, h(0)), the integrand is at least 0.197 M(z) / (1 + eps),
        so the integral past a = max(z0, 0) is at least 0.197 B(a) / (1 + eps).
        With u = (Z - a) eps, B(Z) / B(a) <= (1 + u) e^-u <= 1.2131 e^(-u/2),
        so the Z below leaves out at most tol/4 of the value.  The quadrature
        gauge is held to tol/2 of a first-pass estimate of the value.
        """
        require_positive(tol=tol, delta=delta)
        eps = delta / self.sigma
        z0 = -self.mu / self.sigma  # x = 0
        # a sum: 25 (1 + eps) / tol overflows for eps > 7e298 or tol < 1e-307
        log_ratio = math.log(25.0) + math.log1p(eps) - math.log(tol)
        top = max(z0, 0.0) + 2.0 * log_ratio / eps
        lo = max(z0, _NORMAL_FLOOR_Z)

        def g(z):
            out = np.empty_like(z)
            far = z > 1.0
            w = z[~far]
            out[~far] = norm_pdf(w) * np.exp(log_ndtr(-(w + eps)) - 2.0 * log_ndtr(-w))
            w = z[far]
            h, h_eps = _special.log_ndtr_d1(-w), _special.log_ndtr_d1(-(w + eps))
            out[far] = np.exp(-w * eps - 0.5 * eps * eps) * h * (h / h_eps)
            return out

        estimate, _ = integrate(g, lo, top, math.inf)
        try:
            return integrate(g, lo, top, 0.5 * tol * estimate)[0]
        except QuadratureError as exc:
            # name the caller's relative tol, not the quadrature's absolute one
            raise QuadratureError(
                f"tol {tol:g} cannot be met: the quadrature gets half of it "
                f"times the value, and {exc}",
                exc.best_estimate, exc.error_bound,
            ) from None

    def standard(self):
        return Normal(), self.sigma

    def log_cdf_em(self, u):
        return (_special.log_ndtr_integral(u), *_special.log_ndtr_odd_derivatives(u))


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform law on (lo, hi)."""

    lo: float = 0.0
    hi: float = 1.0
    kind = "uniform"

    def __post_init__(self):
        require_finite(lo=self.lo, hi=self.hi)
        if not self.lo < self.hi:
            raise DriftRecordsError(f"lo must be below hi, got lo={self.lo}, hi={self.hi}")

    @property
    def support(self):
        return (self.lo, self.hi)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def log_cdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self.cdf(x))

    def log_sf(self, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return np.log(np.clip((self.hi - x) / (self.hi - self.lo), 0.0, 1.0))

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def quantile(self, u, out=None):
        # lo + u (hi - lo)
        u, x = _target(u, out)
        np.multiply(u, self.hi - self.lo, out=x)
        np.add(x, self.lo, out=x)
        return _result(x, out)

    def tail_info(self):
        if self.hi <= 0.0:
            mu_plus = 0.0
        else:
            a = max(self.lo, 0.0)
            mu_plus = (self.hi * self.hi - a * a) / (2.0 * (self.hi - self.lo))
        # S(x + delta) vanishes past hi - delta, where S(x) > 0
        return TailInfo(mu_plus, True)

    def zero_trend_integral(self, delta, tol):
        """The survival-ratio integral in closed form; tol is not needed.

        In t = hi - x the integrand is (t - delta) / t^2 for t from delta
        up to U = hi - max(lo, 0), so with r = 1 - delta/U the value is
        log(U/delta) - r = -log1p(-r) - r when U > delta, and 0 otherwise.
        """
        require_positive(tol=tol, delta=delta)
        span = self.hi - max(self.lo, 0.0)
        if span <= delta:
            return 0.0
        r = (span - delta) / span
        if r > 0.25:
            return math.log(span / delta) - r
        # sum_{k>=2} r^k / k: the two terms above cancel to r^2/2 as r -> 0,
        # and each term here is at most a quarter of the one before
        return math.fsum(r**k / k for k in range(2, 30))

    def standard(self):
        return Uniform(), self.hi - self.lo

    # the member's g = log u, continued past 1

    def log_cdf_em(self, u):
        u = np.asarray(u, dtype=np.float64)
        v = np.maximum(u, 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            return xlogy(v, v) - v, 1.0 / u, 2.0 / u**3, 24.0 / u**5


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential law with the given rate on x > 0."""

    rate: float = 1.0
    kind = "exp"
    support = (0.0, _INF)

    def __post_init__(self):
        require_positive(rate=self.rate)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def log_cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(-np.expm1(-self.rate * np.maximum(x, 0.0)))
        return np.where(x > 0.0, out, -_INF)

    def log_sf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 0.0, -self.rate * np.maximum(x, 0.0), 0.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def quantile(self, u, out=None):
        # -log1p(-u) / rate
        u, x = _target(u, out)
        np.negative(u, out=x)
        with np.errstate(divide="ignore"):
            np.log1p(x, out=x)
        np.negative(x, out=x)
        np.divide(x, self.rate, out=x)
        return _result(x, out)

    def tail_info(self):
        # the hazard f/S is the constant rate
        return TailInfo(1.0 / self.rate, False)

    def standard(self):
        return Exponential(), 1.0 / self.rate

    # With t = e^(-u): the member's g = log(1 - t).  The derivatives are
    # written in t, because the e^(+u) forms overflow to nan.

    def log_cdf_em(self, u):
        # G = Li2(t), where Li2(t) = spence(1 - t) = spence(s)
        u = np.asarray(u, dtype=np.float64)
        t, s = np.exp(-u), -np.expm1(-u)
        with np.errstate(divide="ignore"):
            poly = 1.0 + t * (11.0 + t * (11.0 + t))
            return spence(s), t / s, t * (1.0 + t) / s**3, t * poly / s**5


_FAMILIES = {
    cls.kind: cls for cls in (Gumbel, ParetoUnit, Dagum, Normal, Uniform, Exponential)
}


def parse_spec(text: str) -> Distribution:
    """Build a distribution from a spec string.

    Grammar: ``gumbel``, ``pareto1``, ``dagum:b=<v>,q=<v>``,
    ``normal:mu=<v>,sigma=<v>``, ``uniform:lo=<v>,hi=<v>``, ``exp:rate=<v>``.
    Omitted parameters take the defaults of the family's dataclass fields.
    """
    text = text.strip()
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind not in _FAMILIES:
        raise DriftRecordsError(
            f"unknown distribution kind {kind!r}; expected one of "
            f"{sorted(_FAMILIES)}"
        )
    family = _FAMILIES[kind]
    params = {f.name: f.default for f in dataclasses.fields(family)}
    if rest:
        if not params:
            raise DriftRecordsError(f"{kind} takes no parameters, got {rest!r}")
        for item in rest.split(","):
            if not item.strip():
                continue
            key, eq, val = item.partition("=")
            key = key.strip()
            if not eq or key not in params:
                raise DriftRecordsError(
                    f"bad parameter {item!r} for {kind}; "
                    f"expected one of {sorted(params)}"
                )
            try:
                params[key] = float(val)
            except ValueError:
                raise DriftRecordsError(
                    f"parameter {key} of {kind} must be a number, got {val!r}"
                ) from None
    return family(**params)
