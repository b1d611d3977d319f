"""Noise distributions for the linear drift model.

Six built-in families, each exposing exact closed-form cdf, log-cdf, pdf,
quantile, inverse-transform sampling, support endpoints, and right-tail
moment metadata.  Support endpoints and the right-tail mean are tabulated
per family rather than integrated numerically, because downstream
classifiers branch on their exact finiteness.

Each family also gives g = log F what the Euler-Maclaurin tail of the
record-probability log-product needs: the antiderivative G, the odd
derivatives g', g''' and g^(5), and a bound on the total variation of
g^(5) over an interval.  These follow g's analytic form on the interior
of the support; at and above a finite upper endpoint every factor F is
exactly 1, and the tail stops before it.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, spence, xlogy

from . import _special
from ._special import norm_pdf, norm_quantile
from .errors import DriftRecordsError

# Right-tail mean of the standard Gumbel law, int_0^inf x f(x) dx.
# Equals int_0^1 (-log t) e^(-t) dt after t = exp(-x); cross-checked in tests
# against independent quadrature.
GUMBEL_MU_PLUS = 0.7965995992970531

_INF = math.inf


@dataclass(frozen=True)
class TailInfo:
    """Right-tail mean int_0^inf x f(x) dx (math.inf when divergent) and
    whether the full second moment is finite."""

    mu_plus: float
    second_moment_finite: bool


class Distribution:
    """Common interface of the built-in noise laws.

    Subclasses provide vectorized ``cdf``, ``log_cdf``, ``pdf``, ``quantile``,
    plus ``support``, ``tail_info`` and the Euler-Maclaurin data of
    g = log F: ``log_cdf_integral``, ``log_cdf_d1``, ``log_cdf_d3``,
    ``log_cdf_d5`` and, where g^(6) changes sign, ``log_cdf_d5_variation``.
    All of them are immutable value objects, safe to share across threads.
    """

    kind = "abstract"

    @property
    def support(self):
        """(lower, upper) endpoints of the support; may be +-inf."""
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def log_cdf(self, x):
        """log F(x), computed without evaluating F when F underflows."""
        raise NotImplementedError

    def log_sf(self, x):
        """log(1 - F(x)), computed without evaluating 1 - F when it
        underflows."""
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def log_pdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def tail_info(self) -> TailInfo:
        raise NotImplementedError

    def log_cdf_integral(self, u):
        """G(u), an antiderivative of g = log F, with G(+inf) = 0 whenever
        g is integrable at +inf."""
        raise NotImplementedError

    def log_cdf_d1(self, u):
        """g'(u) = pdf(u) / cdf(u)."""
        raise NotImplementedError

    def log_cdf_d3(self, u):
        """g'''(u)."""
        raise NotImplementedError

    def log_cdf_d5(self, u):
        """g^(5)(u)."""
        raise NotImplementedError

    def log_cdf_d5_variation(self, a, b, d5a, d5b):
        """Upper bound on the total variation of g^(5) over [a, b], given
        d5a = g^(5)(a) and d5b = g^(5)(b).

        This default is exact when g^(6) keeps one sign, as it does for
        every built-in family except the normal one.
        """
        return np.abs(d5a - d5b)

    def sample(self, rng, size=None):
        """Inverse-transform draws from uniforms of the given generator."""
        return self.quantile(rng.random(size))

    def spec_string(self):
        return self.kind


@dataclass(frozen=True)
class Gumbel(Distribution):
    """Standard Gumbel law, F(x) = exp(-exp(-x)) on the whole line."""

    kind = "gumbel"

    @property
    def support(self):
        return (-_INF, _INF)

    def cdf(self, x):
        return np.exp(-np.exp(-np.asarray(x, dtype=np.float64)))

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

    def log_pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return -x - np.exp(-x)

    def quantile(self, u):
        u = np.asarray(u, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return -np.log(-np.log(u))

    def tail_info(self):
        return TailInfo(GUMBEL_MU_PLUS, True)

    def log_cdf_integral(self, u):
        # g = -e^(-u): its antiderivative and its odd derivatives are e^(-u)
        return np.exp(-np.asarray(u, dtype=np.float64))

    log_cdf_d1 = log_cdf_integral
    log_cdf_d3 = log_cdf_integral
    log_cdf_d5 = log_cdf_integral


@dataclass(frozen=True)
class ParetoUnit(Distribution):
    """Pareto law with F(x) = 1 - 1/x on x > 1; infinite right-tail mean."""

    kind = "pareto1"

    @property
    def support(self):
        return (1.0, _INF)

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

    def log_pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 1.0, -2.0 * np.log(np.maximum(x, 1.0)), -_INF)

    def quantile(self, u):
        u = np.asarray(u, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return 1.0 / (1.0 - u)

    def tail_info(self):
        return TailInfo(_INF, False)

    def log_cdf_integral(self, u):
        # (u - 1) log(1 - 1/u) - log u
        u = np.maximum(np.asarray(u, dtype=np.float64), 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            head = np.where(u > 1.0, (u - 1.0) * np.log1p(-1.0 / u), 0.0)
        return head - np.log(u)

    def log_cdf_d1(self, u):
        u = np.asarray(u, dtype=np.float64)
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / u / (u - 1.0)

    def log_cdf_d3(self, u):
        # 2/(u-1)^3 - 2/u^3, in powers of w = 1/u: no cancellation at
        # large u, no overflow
        u = np.asarray(u, dtype=np.float64)
        w = 1.0 / u
        with np.errstate(divide="ignore", over="ignore"):
            return 2.0 * (3.0 - 3.0 * w + w * w) / (u**4 * (1.0 - w) ** 3)

    def log_cdf_d5(self, u):
        # 24/(u-1)^5 - 24/u^5, in powers of w = 1/u as for g'''
        u = np.asarray(u, dtype=np.float64)
        w = 1.0 / u
        with np.errstate(divide="ignore", over="ignore"):
            poly = 5.0 - w * (10.0 - w * (10.0 - w * (5.0 - w)))
            return 24.0 * poly / (u**6 * (1.0 - w) ** 5)


@dataclass(frozen=True)
class Dagum(Distribution):
    """Dagum law with unit shape, F(x) = (1 + b/x)^(-q) on x > 0.

    The unit shape makes the right-tail mean infinite for every b, q > 0.
    """

    b: float
    q: float
    kind = "dagum"

    def __post_init__(self):
        if not (0.0 < self.b < _INF and 0.0 < self.q < _INF):
            raise DriftRecordsError(
                "dagum requires finite b > 0 and q > 0, "
                f"got b={self.b}, q={self.q}"
            )

    @property
    def support(self):
        return (0.0, _INF)

    def cdf(self, x):
        return np.exp(self.log_cdf(x))

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

    def log_pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        xp = np.where(x > 0.0, x, 1.0)
        out = (
            np.log(self.q * self.b)
            - (self.q + 1.0) * np.log1p(self.b / xp)
            - 2.0 * np.log(xp)
        )
        return np.where(x > 0.0, out, -_INF)

    def quantile(self, u):
        u = np.asarray(u, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return self.b / np.expm1(-np.log(u) / self.q)

    def tail_info(self):
        return TailInfo(_INF, False)

    def log_cdf_integral(self, u):
        # q (-u log(1 + b/u) - b log(u + b))
        u = np.maximum(np.asarray(u, dtype=np.float64), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            head = np.where(u > 0.0, u * np.log1p(self.b / u), 0.0)
        return -self.q * (head + self.b * np.log(u + self.b))

    def log_cdf_d1(self, u):
        u = np.asarray(u, dtype=np.float64)
        with np.errstate(divide="ignore", over="ignore"):
            return self.q * self.b / u / (u + self.b)

    def log_cdf_d3(self, u):
        # 2q (1/u^3 - 1/(u+b)^3); past u = b in powers of r = b/u, which
        # neither cancels nor overflows
        u = np.asarray(u, dtype=np.float64)
        b = self.b
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            near = 1.0 / u**3 - 1.0 / (u + b) ** 3
            r = b / u
            far = b * (3.0 + 3.0 * r + r * r) / (u**4 * (1.0 + r) ** 3)
        return 2.0 * self.q * np.where(u > b, far, near)

    def log_cdf_d5(self, u):
        # 24q (1/u^5 - 1/(u+b)^5), split as g''' is
        u = np.asarray(u, dtype=np.float64)
        b = self.b
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            near = 1.0 / u**5 - 1.0 / (u + b) ** 5
            r = b / u
            poly = 5.0 + r * (10.0 + r * (10.0 + r * (5.0 + r)))
            far = b * poly / (u**6 * (1.0 + r) ** 5)
        return 24.0 * self.q * np.where(u > b, far, near)

    def spec_string(self):
        return f"dagum:b={self.b},q={self.q}"


@dataclass(frozen=True)
class Normal(Distribution):
    """Gaussian law with mean mu and standard deviation sigma."""

    mu: float = 0.0
    sigma: float = 1.0
    kind = "normal"

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0.0 < self.sigma < _INF):
            raise DriftRecordsError(
                "normal requires a finite mu and a finite sigma > 0, "
                f"got mu={self.mu}, sigma={self.sigma}"
            )

    @property
    def support(self):
        return (-_INF, _INF)

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

    def log_pdf(self, x):
        z = self._z(x)
        return -0.5 * z * z - math.log(self.sigma * math.sqrt(2.0 * math.pi))

    def quantile(self, u):
        return self.mu + self.sigma * norm_quantile(u)

    def tail_info(self):
        z = self.mu / self.sigma
        mu_plus = self.mu * float(ndtr(z)) + self.sigma * float(norm_pdf(z))
        return TailInfo(mu_plus, True)

    def log_cdf_integral(self, u):
        return self.sigma * _special.log_ndtr_integral(self._z(u))

    def log_cdf_d1(self, u):
        return _special.log_ndtr_d1(self._z(u)) / self.sigma

    def log_cdf_d3(self, u):
        return _special.log_ndtr_d3(self._z(u)) / self.sigma**3

    def log_cdf_d5(self, u):
        return _special.log_ndtr_d5(self._z(u)) / self.sigma**5

    def log_cdf_d5_variation(self, a, b, d5a, d5b):
        # g^(5) is monotone between its extrema: sum the increments from a
        # through the extrema inside (a, b) to b.  An extremum left of a
        # takes a's value and one right of b takes b's, adding nothing.
        za, zb = self._z(a), self._z(b)
        tv, prev = 0.0, d5a
        for z, peak in zip(_special.D5_EXTREMA_Z, _special.D5_EXTREMA):
            v = np.where(z <= za, d5a, np.where(z >= zb, d5b, peak / self.sigma**5))
            tv, prev = tv + np.abs(v - prev), v
        return tv + np.abs(d5b - prev)

    def spec_string(self):
        return f"normal:mu={self.mu},sigma={self.sigma}"


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform law on (lo, hi)."""

    lo: float = 0.0
    hi: float = 1.0
    kind = "uniform"

    def __post_init__(self):
        if not -_INF < self.lo < self.hi < _INF:
            raise DriftRecordsError(
                f"uniform requires finite lo < hi, got lo={self.lo}, hi={self.hi}"
            )

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

    def log_pdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self.pdf(x))

    def quantile(self, u):
        u = np.asarray(u, dtype=np.float64)
        return self.lo + u * (self.hi - self.lo)

    def tail_info(self):
        if self.hi <= 0.0:
            mu_plus = 0.0
        else:
            a = max(self.lo, 0.0)
            mu_plus = (self.hi * self.hi - a * a) / (2.0 * (self.hi - self.lo))
        return TailInfo(mu_plus, True)

    # g = log((u - lo) / (hi - lo)), continued past hi

    def log_cdf_integral(self, u):
        d = np.maximum(np.asarray(u, dtype=np.float64) - self.lo, 0.0)
        return xlogy(d, d / (self.hi - self.lo)) - d

    def log_cdf_d1(self, u):
        with np.errstate(divide="ignore"):
            return 1.0 / (np.asarray(u, dtype=np.float64) - self.lo)

    def log_cdf_d3(self, u):
        with np.errstate(divide="ignore"):
            return 2.0 / (np.asarray(u, dtype=np.float64) - self.lo) ** 3

    def log_cdf_d5(self, u):
        with np.errstate(divide="ignore", over="ignore"):
            return 24.0 / (np.asarray(u, dtype=np.float64) - self.lo) ** 5

    def spec_string(self):
        return f"uniform:lo={self.lo},hi={self.hi}"


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential law with the given rate on x > 0."""

    rate: float = 1.0
    kind = "exp"

    def __post_init__(self):
        if not 0.0 < self.rate < _INF:
            raise DriftRecordsError(
                f"exp requires a finite rate > 0, got {self.rate}"
            )

    @property
    def support(self):
        return (0.0, _INF)

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

    def log_pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(
            x > 0.0, math.log(self.rate) - self.rate * np.maximum(x, 0.0), -_INF
        )

    def quantile(self, u):
        u = np.asarray(u, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return -np.log1p(-u) / self.rate

    def tail_info(self):
        return TailInfo(1.0 / self.rate, True)

    # With t = e^(-rate u): g = log(1 - t).  The derivatives are written in
    # t, because the e^(+rate u) forms overflow to nan.

    def log_cdf_integral(self, u):
        # Li2(t) / rate, where Li2(t) = spence(1 - t)
        lu = self.rate * np.asarray(u, dtype=np.float64)
        return spence(-np.expm1(-lu)) / self.rate

    def log_cdf_d1(self, u):
        lu = self.rate * np.asarray(u, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return self.rate * np.exp(-lu) / -np.expm1(-lu)

    def log_cdf_d3(self, u):
        lu = self.rate * np.asarray(u, dtype=np.float64)
        t = np.exp(-lu)
        with np.errstate(divide="ignore"):
            return self.rate**3 * t * (1.0 + t) / (-np.expm1(-lu)) ** 3

    def log_cdf_d5(self, u):
        lu = self.rate * np.asarray(u, dtype=np.float64)
        t = np.exp(-lu)
        with np.errstate(divide="ignore"):
            poly = 1.0 + t * (11.0 + t * (11.0 + t))
            return self.rate**5 * t * poly / (-np.expm1(-lu)) ** 5

    def spec_string(self):
        return f"exp:rate={self.rate}"


_PARAM_DEFAULTS = {
    "dagum": {"b": 1.0, "q": 1.0},
    "normal": {"mu": 0.0, "sigma": 1.0},
    "uniform": {"lo": 0.0, "hi": 1.0},
    "exp": {"rate": 1.0},
}

_KIND_FACTORY = {
    "gumbel": lambda p: Gumbel(),
    "pareto1": lambda p: ParetoUnit(),
    "dagum": lambda p: Dagum(b=p["b"], q=p["q"]),
    "normal": lambda p: Normal(mu=p["mu"], sigma=p["sigma"]),
    "uniform": lambda p: Uniform(lo=p["lo"], hi=p["hi"]),
    "exp": lambda p: Exponential(rate=p["rate"]),
}


def parse_spec(text: str) -> Distribution:
    """Build a distribution from a spec string.

    Grammar: ``gumbel``, ``pareto1``, ``dagum:b=<v>,q=<v>``,
    ``normal:mu=<v>,sigma=<v>``, ``uniform:lo=<v>,hi=<v>``, ``exp:rate=<v>``.
    Omitted parameters take the documented defaults.
    """
    text = text.strip()
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind not in _KIND_FACTORY:
        raise DriftRecordsError(
            f"unknown distribution kind {kind!r}; expected one of "
            f"{sorted(_KIND_FACTORY)}"
        )
    params = dict(_PARAM_DEFAULTS.get(kind, {}))
    if rest:
        if kind in ("gumbel", "pareto1"):
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
    return _KIND_FACTORY[kind](params)
