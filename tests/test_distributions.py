import math
import sys

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from driftrecords import _special
from driftrecords.probability import _d5_variation
from driftrecords._kernels import BLOCK_VALUES
from driftrecords.errors import DriftRecordsError
from driftrecords.distributions import (
    Dagum,
    Exponential,
    Gumbel,
    Normal,
    ParetoUnit,
    Uniform,
    parse_spec,
)

from conftest import LAW_PARAMETER_CASES

ALL_DISTS = [
    Gumbel(),
    ParetoUnit(),
    Dagum(b=1.0, q=2.0),
    Dagum(b=3.0, q=0.5),
    Normal(mu=0.0, sigma=1.0),
    Normal(mu=2.0, sigma=0.5),
    Uniform(lo=0.0, hi=1.0),
    Uniform(lo=-1.0, hi=3.0),
    Exponential(rate=1.0),
    Exponential(rate=0.25),
]


def _interior_grid(dist, k=41):
    u = np.linspace(0.01, 0.99, k)
    return dist.quantile(u)


def test_cdf_spot_values():
    assert Gumbel().cdf(0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert ParetoUnit().cdf(1.0) == 0.0
    assert Uniform(lo=0.0, hi=1.0).cdf(0.25) == 0.25


@pytest.mark.parametrize("dist", ALL_DISTS, ids=repr)
def test_cdf_quantile_round_trip(dist):
    u = np.linspace(1e-6, 1.0 - 1e-6, 101)
    x = dist.quantile(u)
    np.testing.assert_allclose(dist.cdf(x), u, rtol=0, atol=1e-9)
    xs = _interior_grid(dist)
    np.testing.assert_allclose(dist.quantile(dist.cdf(xs)), xs, rtol=1e-9)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=repr)
def test_cdf_monotone_and_bounded(dist):
    lo, hi = dist.support
    xs = np.linspace(
        lo - 1.0 if math.isfinite(lo) else -50.0,
        hi + 1.0 if math.isfinite(hi) else 50.0,
        301,
    )
    vals = dist.cdf(xs)
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("dist", ALL_DISTS, ids=repr)
def test_pdf_is_cdf_derivative(dist):
    xs = _interior_grid(dist)
    h = 1e-6 * np.maximum(1.0, np.abs(xs))
    numeric = (dist.cdf(xs + h) - dist.cdf(xs - h)) / (2.0 * h)
    np.testing.assert_allclose(dist.pdf(xs), numeric, rtol=5e-5, atol=1e-10)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=repr)
def test_log_forms_match_linear_forms(dist):
    xs = _interior_grid(dist)
    np.testing.assert_allclose(np.exp(dist.log_cdf(xs)), dist.cdf(xs), rtol=1e-12)
    np.testing.assert_allclose(
        np.exp(dist.log_sf(xs)), 1.0 - dist.cdf(xs), rtol=1e-9
    )


def test_dagum_matches_reference_law():
    # Dagum with unit scale exponent is a Burr III law after rescaling.
    d = Dagum(b=2.0, q=1.5)
    ref = scipy.stats.burr(c=1.0, d=1.5)
    xs = np.linspace(0.05, 40.0, 200)
    np.testing.assert_allclose(d.cdf(xs), ref.cdf(xs / 2.0), rtol=1e-10)
    np.testing.assert_allclose(d.pdf(xs), ref.pdf(xs / 2.0) / 2.0, rtol=1e-8)


def test_gumbel_matches_reference_law():
    ref = scipy.stats.gumbel_r()
    xs = np.linspace(-3.0, 8.0, 100)
    np.testing.assert_allclose(Gumbel().cdf(xs), ref.cdf(xs), rtol=1e-12)
    np.testing.assert_allclose(Gumbel().pdf(xs), ref.pdf(xs), rtol=1e-12)


class TestTailInfo:
    def test_mu_plus_finite_values_against_quadrature(self):
        for dist in [
            Gumbel(),
            Normal(mu=0.0, sigma=1.0),
            Normal(mu=2.0, sigma=0.5),
            Normal(mu=-3.0, sigma=2.0),
            Uniform(lo=0.0, hi=1.0),
            Uniform(lo=-1.0, hi=3.0),
            Uniform(lo=-2.0, hi=-1.0),
            Exponential(rate=0.25),
        ]:
            lo, hi = dist.support
            a = max(lo, 0.0)
            b = hi if math.isfinite(hi) else np.inf
            if b <= a:
                want = 0.0
            else:
                want, _ = scipy.integrate.quad(
                    lambda x: x * dist.pdf(x), a, b
                )
            got = dist.tail_info().mu_plus
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12), dist

    def test_mu_plus_uniform_positive_part(self):
        # E[max(X, 0)] for Uniform(0,1) is the integral of x on (0,1).
        assert Uniform(lo=0.0, hi=1.0).tail_info().mu_plus == pytest.approx(0.5)
        assert Uniform(lo=-1.0, hi=1.0).tail_info().mu_plus == pytest.approx(0.25)
        assert Uniform(lo=-2.0, hi=-1.0).tail_info().mu_plus == 0.0

    def test_mu_plus_infinite_for_heavy_tails(self):
        assert math.isinf(ParetoUnit().tail_info().mu_plus)
        assert math.isinf(Dagum(b=1.0, q=2.0).tail_info().mu_plus)
        assert math.isinf(Dagum(b=5.0, q=0.5).tail_info().mu_plus)

    def test_zero_trend_finite_flags(self):
        assert Normal(mu=0.0, sigma=1.0).tail_info().zero_trend_finite
        assert Uniform(lo=-1.0, hi=1.0).tail_info().zero_trend_finite
        assert not Gumbel().tail_info().zero_trend_finite
        assert not Exponential(rate=3.0).tail_info().zero_trend_finite
        assert not ParetoUnit().tail_info().zero_trend_finite
        assert not Dagum(b=1.0, q=3.0).tail_info().zero_trend_finite


def _uniform_survival_ratio(lo, hi, delta):
    """30-digit mpmath value of int_{x >= 0} S(x + delta) f(x) / S(x)^2 dx
    for the uniform law on (lo, hi).  In t = hi - x the integrand peaks at
    t = 2 delta, so the breakpoints double from t = delta up to t = U."""
    with mp.workdps(30):
        lo, hi, delta = mp.mpf(lo), mp.mpf(hi), mp.mpf(delta)
        span = hi - max(lo, 0)
        if span <= delta:
            return 0.0

        def ratio(t):
            sf = lambda x: (hi - x) / (hi - lo)
            x = hi - t
            return sf(x + delta) / (hi - lo) / sf(x) ** 2

        points = [delta * 2**k for k in range(int(mp.log(span / delta, 2)) + 1)]
        return float(mp.quad(ratio, points + [span]))


class TestZeroTrendIntegral:
    """The uniform value is exact: -log1p(-r) - r with r = 1 - delta/U and
    U = hi - max(lo, 0), or 0 once delta >= U."""

    @pytest.mark.parametrize("lo,hi,delta", [
        (0.0, 1.0, 0.25),
        (-1.0, 3.0, 0.5),        # lo < 0 < hi
        (0.5, 2.0, 0.25),        # lo > 0
        (0.0, 1.0, 0.75),        # r = 1/4, where the series takes over
        (0.0, 1.0, 0.8),
        (0.0, 1.0, 1.0 - 1e-8),  # r near 1e-8: the two terms cancel to r^2/2
        (-5.0, 10.0, 1e-9),      # r near 1
    ])
    def test_uniform_matches_mpmath(self, lo, hi, delta):
        want = _uniform_survival_ratio(lo, hi, delta)
        # abs=0: near r = 1e-8 the value, 5e-17, is below approx's default abs
        assert Uniform(lo, hi).zero_trend_integral(delta, 1e-8) == pytest.approx(
            want, rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("lo,hi,delta", [
        (0.0, 1.0, 1.0),     # delta = U
        (0.0, 1.0, 3.0),     # delta > U
        (-1.0, 3.0, 3.0),
        (-2.0, -1.0, 0.5),   # hi <= 0: no mass at x >= 0
        (-2.0, 0.0, 1e-9),
    ])
    def test_uniform_is_zero_when_delta_covers_the_positive_part(self, lo, hi, delta):
        assert _uniform_survival_ratio(lo, hi, delta) == 0.0
        assert Uniform(lo, hi).zero_trend_integral(delta, 1e-8) == 0.0

    @pytest.mark.parametrize("dist", [Normal(0.0, 1.0), Uniform(0.0, 1.0)], ids=repr)
    @pytest.mark.parametrize("delta, tol, name", [
        (0.5, 0.0, "tol"), (0.5, -1.0, "tol"), (0.5, math.nan, "tol"),
        (0.5, math.inf, "tol"), (0.0, 1e-8, "delta"), (-1.0, 1e-8, "delta"),
        (math.nan, 1e-8, "delta"), (math.inf, 1e-8, "delta"),
    ])
    def test_rejects_a_bad_threshold_or_tolerance(self, dist, delta, tol, name):
        # the normal law used to raise ZeroDivisionError at tol = 0 and
        # "math domain error" at delta = -1
        with pytest.raises(DriftRecordsError, match=f"^{name} must be positive"):
            dist.zero_trend_integral(delta, tol)

    def test_laws_whose_integral_diverges_have_no_value(self):
        for dist in ALL_DISTS:
            if not dist.tail_info().zero_trend_finite:
                with pytest.raises(NotImplementedError):
                    dist.zero_trend_integral(0.5, 1e-8)


class TestSampling:
    """Inverse-transform draws, quantile(rng.random(n)), as the Monte Carlo
    engine makes them."""

    def test_deterministic_given_seed(self):
        for dist in ALL_DISTS:
            r1 = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
            r2 = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
            a = dist.quantile(r1.random(100))
            b = dist.quantile(r2.random(100))
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=repr)
    def test_empirical_cdf_matches(self, dist):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(11)))
        n = 40_000
        x = dist.quantile(rng.random(n))
        lo, hi = dist.support
        assert np.all(x >= lo) and np.all(x <= hi)
        for u in (0.1, 0.5, 0.9):
            q = dist.quantile(u)
            emp = float(np.mean(x <= q))
            se = math.sqrt(u * (1.0 - u) / n)
            assert abs(emp - u) < 5.0 * se, (dist, u, emp)

    def test_normal_sample_moments(self):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
        x = Normal(mu=2.0, sigma=0.5).quantile(rng.random(200_000))
        assert x.mean() == pytest.approx(2.0, abs=0.01)
        assert x.std() == pytest.approx(0.5, abs=0.01)


class TestParseSpec:
    def test_all_kinds(self):
        assert parse_spec("gumbel") == Gumbel()
        assert parse_spec("pareto1") == ParetoUnit()
        assert parse_spec("dagum:b=2,q=0.5") == Dagum(b=2.0, q=0.5)
        assert parse_spec("normal:mu=1,sigma=3") == Normal(mu=1.0, sigma=3.0)
        assert parse_spec("uniform:lo=-1,hi=2") == Uniform(lo=-1.0, hi=2.0)
        assert parse_spec("exp:rate=0.5") == Exponential(rate=0.5)

    def test_defaults(self):
        assert parse_spec("normal") == Normal(mu=0.0, sigma=1.0)
        assert parse_spec("uniform") == Uniform(lo=0.0, hi=1.0)
        assert parse_spec("exp") == Exponential(rate=1.0)
        assert parse_spec("dagum") == Dagum(b=1.0, q=1.0) == Dagum()
        assert parse_spec("dagum:q=2") == Dagum(b=1.0, q=2.0)

    def test_empty_items_are_skipped(self):
        assert parse_spec("normal:mu=1,,sigma=2") == Normal(mu=1.0, sigma=2.0)

    def test_unknown_kind(self):
        with pytest.raises(DriftRecordsError, match="unknown distribution"):
            parse_spec("cauchy")

    def test_unknown_parameter(self):
        with pytest.raises(DriftRecordsError, match="parameter"):
            parse_spec("normal:mean=0")

    def test_bad_number(self):
        with pytest.raises(DriftRecordsError, match="number"):
            parse_spec("normal:mu=abc")

    def test_parameterless_kinds_reject_params(self):
        with pytest.raises(DriftRecordsError):
            parse_spec("gumbel:mu=0")
        with pytest.raises(DriftRecordsError):
            parse_spec("pareto1:b=2")

    @pytest.mark.parametrize("kind, name, value, message", LAW_PARAMETER_CASES)
    def test_parameter_rules_name_the_parameter(self, kind, name, value, message):
        # each law parameter at 0, -1, NaN and +-inf, built directly and
        # from a spec
        family = type(parse_spec(kind))
        for make in (lambda: family(**{name: value}),
                     lambda: parse_spec(f"{kind}:{name}={value}")):
            if message is None:
                assert getattr(make(), name) == value
            else:
                with pytest.raises(DriftRecordsError, match=f"^{message}, got "):
                    make()


def _mp_log_cdf(dist):
    """g = log F of ``dist`` in mpmath arithmetic, on the support's interior."""
    if dist.kind == "gumbel":
        return lambda u: -mp.exp(-u)
    if dist.kind == "pareto1":
        return lambda u: mp.log(1 - 1 / u)
    if dist.kind == "dagum":
        return lambda u: -dist.q * mp.log(1 + dist.b / u)
    if dist.kind == "normal":
        return lambda u: mp.log(mp.ncdf((u - dist.mu) / dist.sigma))
    if dist.kind == "uniform":
        return lambda u: mp.log((u - dist.lo) / (dist.hi - dist.lo))
    return lambda u: mp.log(-mp.expm1(-dist.rate * u))


def _em_points(dist):
    """Interior points from the lower tail to far in the upper tail."""
    u = [0.02, 0.3, 0.7, 0.98]
    if not math.isfinite(dist.support[1]):
        u.append(1.0 - 1e-9)
    return [float(x) for x in dist.quantile(np.array(u))]


class TestEulerMaclaurinData:
    """The antiderivative, derivatives and variation bound of g = log F
    against 30-digit mpmath, for every family.  They describe the law's
    standard member, so a law with a location or a scale is checked on
    its member, at the law's quantile points in the member's units.
    Numerical derivatives of order 5 and 6 lose about 30 digits far in a
    heavy tail, where g is about 1/u and g^(6) about 1/u^7, so they are
    taken at 60 digits."""

    @pytest.fixture(autouse=True)
    def _precision(self):
        with mp.workdps(30):
            yield

    @staticmethod
    def _diff(g, u, order):
        with mp.workdps(60):
            return mp.diff(g, u, order)

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=repr)
    def test_integral_derivatives_and_variation(self, dist):
        dist = dist.standard()[0]
        g = _mp_log_cdf(dist)
        pts = _em_points(dist)
        for u in pts:
            d1 = float(mp.diff(g, u, 1))
            d3 = float(mp.diff(g, u, 3))
            d5 = float(self._diff(g, u, 5))
            _, got1, got3, got5 = dist.log_cdf_em(u)
            assert float(got1) == pytest.approx(d1, rel=1e-10), u
            assert float(got3) == pytest.approx(d3, rel=1e-8), u
            assert float(got5) == pytest.approx(d5, rel=1e-8), u
        for a, b in zip(pts, pts[1:]):
            # G' = g: the antiderivative's increment is the integral of g
            got = float(dist.log_cdf_em(b)[0] - dist.log_cdf_em(a)[0])
            want = mp.quad(g, [a, b])
            scale = abs(float(dist.log_cdf_em(a)[0])) + abs(float(want))
            assert abs(got - float(want)) <= 1e-13 * scale, (a, b)
        # the last interval spans every interior extremum of the normal g^(5)
        for a, b in list(zip(pts, pts[1:])) + [(pts[0], pts[-1])]:
            # int_a^b |g^(6)|: g^(6) keeps one sign on each piece, checked
            # on a grid, so the integral is the sum of |g^(5)| increments
            extrema = [z for z, _ in dist.d5_extrema]
            pieces = [a] + [e for e in extrema if a < e < b] + [b]
            total = mp.mpf(0)
            for lo, hi in zip(pieces, pieces[1:]):
                signs = {mp.sign(self._diff(g, t, 6)) for t in mp.linspace(lo, hi, 9)[1:-1]}
                assert len(signs) == 1, (lo, hi, signs)
                total += abs(self._diff(g, hi, 5) - self._diff(g, lo, 5))
            bound = float(_d5_variation(
                dist, a, b, dist.log_cdf_em(a)[3], dist.log_cdf_em(b)[3]))
            assert bound >= float(total) * (1.0 - 1e-9), (a, b)
            assert bound <= float(total) * (1.0 + 1e-6) + 1e-300, (a, b)

    @pytest.mark.parametrize("dist", [ParetoUnit(), Dagum(q=2.0), Dagum(q=0.5)], ids=repr)
    def test_reciprocal_power_laws_to_the_last_digits(self, dist):
        # g = q (log(u - t) - log(u - t + 1)), t = 1 for Pareto and 0 for
        # Dagum, so g^(k) = (k-1)! q ((u - t)^-k - (u - t + 1)^-k) for odd
        # k, taken with enough digits that 30 survive the difference; from
        # the support's low end to 1e300, across Dagum's old switch at 1
        t, q = dist.support[0], getattr(dist, "q", 1.0)
        us = [math.nextafter(t, math.inf), t + 1e-300, t + 1e-62, t + 1e-15,
              0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 2.0,
              *np.geomspace(3.0, 1e300, 60).tolist()]
        for u in (u for u in us if u > t):
            got = [float(v) for v in dist.log_cdf_em(u)[1:]]
            with mp.workdps(40 + max(0, int(math.log10(u)))):
                x = mp.mpf(u) - t
                want = [float(mp.factorial(k - 1) * q * (x**-k - (x + 1) ** -k))
                        for k in (1, 3, 5)]
            for k, g, w in zip((1, 3, 5), got, want):
                if w == math.inf:
                    assert g == math.inf, (u, k)
                elif w >= sys.float_info.min:
                    assert abs(g - w) <= 1e-14 * w, (u, k, g, w)
                else:
                    # below the least normal double: within one subnormal unit
                    assert abs(g - w) <= 5e-324, (u, k, g, w)
        assert not np.any(np.isnan(dist.log_cdf_em(sys.float_info.max)))

    def test_normal_extrema_constants(self):
        g = _mp_log_cdf(Normal())
        assert len(Normal.d5_extrema) == 3
        for z, peak in Normal.d5_extrema:
            assert abs(self._diff(g, z, 6)) < 1e-15
            assert float(self._diff(g, z, 5)) == pytest.approx(peak, rel=1e-15)

    @pytest.mark.parametrize("dist", [Gumbel(), Normal(), Exponential()],
                             ids=repr)
    def test_tail_limits_at_infinity(self, dist):
        # the engine evaluates these at +inf for the infinite product
        for value in dist.log_cdf_em(math.inf):
            assert float(value) == 0.0
        assert float(_d5_variation(dist, math.inf, math.inf, 0.0, 0.0)) == 0.0

    def test_normal_far_tails_stay_finite(self):
        dist = Normal()
        z = np.array([-1e6, -40.0, -12.5, 12.0, 40.0, 1e6])
        for value in dist.log_cdf_em(z):
            assert np.all(np.isfinite(value))
        g = _mp_log_cdf(dist)
        for u in (-40.0, -12.5, -11.5):
            assert float(dist.log_cdf_em(u)[2]) == pytest.approx(
                float(mp.diff(g, u, 3)), rel=1e-9
            )
        # just right of the series' switch at z = -12 the closed form of
        # g^(5) cancels to about 1e-6 of its value; the series is exact
        for u, rel in ((-40.0, 1e-14), (-12.5, 1e-14), (-12.0, 2e-6), (-11.5, 1e-7)):
            assert float(dist.log_cdf_em(u)[3]) == pytest.approx(
                float(mp.diff(g, u, 5)), rel=rel
            )
            want = mp.quad(g, [u, -3, 0, 3, mp.inf])
            assert float(dist.log_cdf_em(u)[0]) == pytest.approx(
                float(-want), rel=1e-13
            )


def _mp_norm_quantile(p):
    """60-digit inverse normal cdf at the float p: Newton on
    log Phi(x) = log min(p, 1 - p), from the left of the root, where the
    concave log Phi makes the iterates rise to it, then the sign."""
    with mp.workdps(60):
        lower = mp.mpf(p) if p < 0.5 else 1 - mp.mpf(p)
        target = mp.log(lower)
        x = -mp.sqrt(-2 * target)
        for _ in range(100):
            cdf = mp.ncdf(x)
            step = (mp.log(cdf) - target) * cdf / mp.npdf(x)
            x -= step
            if abs(step) < mp.mpf(10) ** -45 * (1 + abs(x)):
                return float(x if p < 0.5 else -x)
    raise AssertionError(f"no convergence at p = {p!r}")


class TestNormQuantile:
    """norm_quantile is scipy's ndtri; its bits are scipy's, so it is
    checked against a high-precision reference, not against a digest."""

    # both ends of (0, 1), the branch points of ndtri, subnormals, NaN
    EDGES = [0.0, 1.0, 0.5, math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0),
             5e-324, 1e-310, 2.2250738585072014e-308, math.nan]

    def test_within_8_ulps_of_mpmath(self):
        rng = np.random.default_rng(20201)
        p = np.concatenate([
            rng.uniform(0.02, 0.98, 400),
            10.0 ** -rng.uniform(1.7, 300.0, 150),
            1.0 - 10.0 ** -rng.uniform(1.7, 16.0, 150),
            [1e-300, 1e-310, 1.0 - 1e-16, math.exp(-2.0), 1.0 - math.exp(-2.0),
             math.exp(-32.0)],
        ])
        want = np.array([_mp_norm_quantile(float(v)) for v in p])
        ulps = np.abs(_special.norm_quantile(p) - want) / np.spacing(np.abs(want))
        assert ulps.max() <= 8.0, (p[np.argmax(ulps)], ulps.max())

    def test_endpoints_nan_and_outside_the_unit_interval(self):
        assert _special.norm_quantile(0.0) == -math.inf
        assert _special.norm_quantile(1.0) == math.inf
        assert _special.norm_quantile(0.5) == 0.0
        assert _special.norm_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-15)
        for p in (math.nan, -0.1, 1.5, -math.inf, math.inf):
            assert math.isnan(_special.norm_quantile(p))
        got = _special.norm_quantile(np.array([0.0, 1.0, math.nan]))
        assert got[0] == -math.inf and got[1] == math.inf and math.isnan(got[2])

    def test_a_float_or_zero_d_array_gives_a_float(self):
        for v in self.EDGES + [0.3, 0.975]:
            for p in (v, np.array(v), np.float64(v)):
                got = _special.norm_quantile(p)
                assert type(got) is float
                want = _special.norm_quantile(np.array([v]))
                assert np.float64(got).tobytes() == want.tobytes()

    def test_an_array_gives_a_new_array_and_stays_unchanged(self):
        p = np.random.default_rng(8).random(3 * 56).reshape(-1, 8)
        p[0, :len(self.EDGES) - 2] = self.EDGES[:-2]
        for arr in (p, p[::2, 1:4], p.T):
            before = arr.copy()
            got = _special.norm_quantile(arr)
            assert arr.tobytes() == before.tobytes()
            assert got.shape == arr.shape and not np.shares_memory(got, arr)
            assert got.tobytes() == scipy.special.ndtri(np.ascontiguousarray(arr)).tobytes()

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (1.0, 2.0), (-3.5, 0.25)])
    def test_normal_quantile_is_mu_plus_sigma_ndtri(self, mu, sigma):
        u = np.concatenate([np.random.default_rng(9).random(BLOCK_VALUES + 5), self.EDGES])
        want = mu + sigma * scipy.special.ndtri(u)
        assert Normal(mu, sigma).quantile(u).tobytes() == want.tobytes()
        for v in self.EDGES[:-1] + [0.3]:
            assert Normal(mu, sigma).quantile(v) == mu + sigma * float(scipy.special.ndtri(v))


QUANTILES = [d.quantile for d in ALL_DISTS] + [_special.norm_quantile]
QUANTILE_IDS = [repr(d) for d in ALL_DISTS] + ["norm_quantile"]


@pytest.mark.bit_identity
class TestInPlaceQuantiles:
    """Every law runs its chain of ufuncs in place, in a new array or in
    the ``out`` array it is given; every value keeps the bits of the
    one-shot expression, and ``out`` gets the bits of the new array."""

    # both ends of [0, 1], its middle and the largest uniform below 1
    EDGES = [0.0, 0.5, 1.0 - 2.0**-53, 1.0]

    @pytest.mark.parametrize("n", [1, 7, BLOCK_VALUES + 5])
    def test_gumbel_matches_the_one_shot_form(self, n):
        u = np.random.default_rng(n).random(n)
        u[:min(n, len(TestNormQuantile.EDGES))] = TestNormQuantile.EDGES[:n]
        with np.errstate(divide="ignore", invalid="ignore"):
            gumbel = -np.log(-np.log(u))
        assert Gumbel().quantile(u).tobytes() == gumbel.tobytes()

    @pytest.mark.parametrize("quantile", QUANTILES, ids=QUANTILE_IDS)
    def test_out_gets_the_bits_of_a_new_array(self, quantile):
        u = np.random.default_rng(5).random((6, 40))
        u[:, :4] = self.EDGES
        u[2, 20:24] = self.EDGES
        want = quantile(u)
        x = u.copy()
        assert quantile(x, out=x) is x
        assert x.tobytes() == want.tobytes()
        out = np.empty_like(u)
        assert quantile(u, out=out) is out
        assert out.tobytes() == want.tobytes()
        # a strided view of the block, as the sigma2 window builder takes
        # its quantiles: the columns left of the view stay uniforms
        for w in (1, 17):
            x = u.copy()
            view = x[:, w:]
            assert quantile(view, out=view) is view
            assert view.tobytes() == want[:, w:].tobytes()
            assert x[:, :w].tobytes() == u[:, :w].tobytes()

    @pytest.mark.parametrize("quantile", QUANTILES, ids=QUANTILE_IDS)
    def test_zero_d_out_and_float_inputs(self, quantile):
        for v in self.EDGES + [0.3]:
            want = quantile(np.array([v]))
            assert np.float64(quantile(v)).tobytes() == want.tobytes()
            x = np.array(v)
            assert quantile(x, out=x) is x
            assert x.tobytes() == want.tobytes()
            out = np.empty(())
            assert quantile(v, out=out) is out
            assert out.tobytes() == want.tobytes()


@pytest.mark.bit_identity
class TestQuantileContract:
    @pytest.mark.parametrize("dist", ALL_DISTS, ids=repr)
    def test_argument_is_left_unchanged(self, dist):
        u = np.concatenate([np.random.default_rng(8).random(998), [0.0, 0.5, 1.0]])
        before = u.copy()
        x = dist.quantile(u)
        assert u.tobytes() == before.tobytes()
        assert x.shape == u.shape and not np.shares_memory(x, u)
        assert dist.quantile(u.reshape(-1, 7)).shape == (143, 7)
        view = u.reshape(-1, 7)[:, 2:]
        x = dist.quantile(view)
        assert u.tobytes() == before.tobytes()
        assert x.shape == (143, 5) and not np.shares_memory(x, u)

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=repr)
    def test_a_float_gives_a_float(self, dist):
        # the quadrature window takes float(dist.quantile(1e-12)); a 0-d
        # array must come back as a scalar, not fail on an out= chain
        for u in (1e-12, 0.5, 1.0 - 1e-12):
            x = dist.quantile(u)
            assert isinstance(x, float) and np.ndim(x) == 0
            assert np.float64(x).tobytes() == dist.quantile(np.array([u]))[:1].tobytes()


def _all_points_log_ndtr_third(z):
    """The g''' of log_ndtr_odd_derivatives with the Mills series, one
    Horner pass in w = s^-2, on every point, then np.where.  Kept as the
    bit-for-bit reference."""
    zc = np.clip(z, _special._Z_LEFT, 40.0)
    r = _special.log_ndtr_d1(zc)
    d = zc + r
    inner = r * (d * (d + r) - 1.0)
    t = 1.0 / -np.minimum(z, _special._Z_LEFT)
    w = t * t
    left = t * w * np.polynomial.polynomial.polyval(w, _special._MILLS_D3)
    return np.where(z < _special._Z_LEFT, left, inner)


def _all_points_log_ndtr_integral(z):
    """log_ndtr_integral with the table's elementwise row sum, the left
    series and the right tail on every point, then np.where.  Kept as the
    bit-for-bit reference; it fails on NaN."""
    lo, hi = _special._Z_LEFT, _special._Z_RIGHT
    edges, cum, (x, w) = _special._integral_table()
    zt = np.clip(z, lo, hi)
    k = np.minimum(((zt - lo) / _special._PANEL).astype(np.int64), edges.shape[0] - 2)
    right = edges[k + 1]
    half = 0.5 * (right - zt)
    pts = (0.5 * (right + zt))[..., None] + half[..., None] * x
    table = cum[k + 1] - half * (scipy.special.log_ndtr(pts) * w).sum(axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):
        s = -np.clip(z, -1e100, lo)
        left = cum[0] + _special._left_tail_integral(-lo, s)
    return np.where(
        z >= hi, _special._right_tail_integral(z), np.where(z < lo, left, table)
    )


@pytest.mark.bit_identity
class TestLogNdtrBranches:
    """log_ndtr_odd_derivatives and log_ndtr_integral run each branch on
    its own points only; g''' and the integral are pinned to the
    all-points form bit for bit."""

    EDGES = [-12.0, 8.0, 40.0, math.inf, -math.inf,
             np.nextafter(-12.0, -math.inf), np.nextafter(8.0, -math.inf)]

    def points(self):
        rng = np.random.default_rng(20203)
        return np.concatenate([
            rng.uniform(-1e6, 1e3, 10_000),
            -np.exp(rng.uniform(math.log(12.0), math.log(1e6), 10_000)),
            rng.uniform(-15.0, 10.0, 10_000),
            self.EDGES,
        ])

    def test_d3_matches_all_points_form_bit_for_bit(self):
        z = self.points()
        got = _special.log_ndtr_odd_derivatives(z)[1]
        assert got.tobytes() == _all_points_log_ndtr_third(z).tobytes()

    def test_first_derivative_is_log_ndtr_d1_bit_for_bit(self):
        # the closed forms take r at z clipped to [-12, 40]; g' itself is
        # r at z, also left of -12 and past 40
        z = np.concatenate([self.points(), [math.nan, -1e300, 1e300]])
        got = _special.log_ndtr_odd_derivatives(z)[0]
        assert got.tobytes() == _special.log_ndtr_d1(z).tobytes()

    def test_integral_matches_all_points_form_bit_for_bit(self):
        # -inf is left out: the all-points form clamps it to -1e100
        z = self.points()
        z = z[z > -math.inf]
        got = _special.log_ndtr_integral(z)
        assert got.tobytes() == _all_points_log_ndtr_integral(z).tobytes()

    def test_table_points_keep_their_bits_in_any_subset(self):
        # a matrix product's last bit can depend on its row count; the
        # table's row sum gives a point the bits it has in the full call
        rng = np.random.default_rng(20205)
        z = rng.uniform(_special._Z_LEFT, _special._Z_RIGHT, 30_000)
        full = _special.log_ndtr_integral(z)
        for size in rng.integers(1, z.shape[0], 60):
            pick = rng.choice(z.shape[0], size, replace=False)
            got = _special.log_ndtr_integral(z[pick])
            assert got.tobytes() == full[pick].tobytes(), size

    def test_all_central_points_skip_both_tails(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a tail branch ran on central points")

        monkeypatch.setattr(_special, "_left_tail_integral", fail)
        monkeypatch.setattr(_special, "_right_tail_integral", fail)
        z = np.random.default_rng(20204).uniform(-11.9, 7.9, 4_000)
        assert np.all(np.isfinite(_special.log_ndtr_integral(z)))
        assert np.all(_special.log_ndtr_odd_derivatives(z)[1] > 0.0)

    def test_integral_nan_and_infinities(self):
        # NaN used to reach the table as an int64 index and raise IndexError
        got = _special.log_ndtr_integral(np.array([math.nan, math.inf, -math.inf, 0.0]))
        assert math.isnan(got[0])
        assert got[1] == 0.0
        assert got[2] == math.inf
        assert got[3] == pytest.approx(0.47753533981, rel=1e-10)
        assert math.isnan(_special.log_ndtr_integral(math.nan))
        assert math.isnan(_special.log_ndtr_odd_derivatives(math.nan)[1])
        assert math.isnan(Normal().log_cdf_em(math.nan)[0])
