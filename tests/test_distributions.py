import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from driftrecords import _special
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


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_cdf_quantile_round_trip(dist):
    u = np.linspace(1e-6, 1.0 - 1e-6, 101)
    x = dist.quantile(u)
    np.testing.assert_allclose(dist.cdf(x), u, rtol=0, atol=1e-9)
    xs = _interior_grid(dist)
    np.testing.assert_allclose(dist.quantile(dist.cdf(xs)), xs, rtol=1e-9)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
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


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_pdf_is_cdf_derivative(dist):
    xs = _interior_grid(dist)
    h = 1e-6 * np.maximum(1.0, np.abs(xs))
    numeric = (dist.cdf(xs + h) - dist.cdf(xs - h)) / (2.0 * h)
    np.testing.assert_allclose(dist.pdf(xs), numeric, rtol=5e-5, atol=1e-10)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
def test_log_forms_match_linear_forms(dist):
    xs = _interior_grid(dist)
    np.testing.assert_allclose(np.exp(dist.log_cdf(xs)), dist.cdf(xs), rtol=1e-12)
    np.testing.assert_allclose(
        np.exp(dist.log_sf(xs)), 1.0 - dist.cdf(xs), rtol=1e-9
    )
    np.testing.assert_allclose(np.exp(dist.log_pdf(xs)), dist.pdf(xs), rtol=1e-12)


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

    def test_second_moment_flags(self):
        assert Gumbel().tail_info().second_moment_finite
        assert Normal(mu=0.0, sigma=1.0).tail_info().second_moment_finite
        assert not ParetoUnit().tail_info().second_moment_finite
        assert not Dagum(b=1.0, q=3.0).tail_info().second_moment_finite


class TestSampling:
    def test_deterministic_given_seed(self):
        for dist in ALL_DISTS:
            r1 = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
            r2 = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
            a = dist.sample(r1, 100)
            b = dist.sample(r2, 100)
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
    def test_empirical_cdf_matches(self, dist):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(11)))
        n = 40_000
        x = dist.sample(rng, n)
        lo, hi = dist.support
        assert np.all(x >= lo) and np.all(x <= hi)
        for u in (0.1, 0.5, 0.9):
            q = dist.quantile(u)
            emp = float(np.mean(x <= q))
            se = math.sqrt(u * (1.0 - u) / n)
            assert abs(emp - u) < 5.0 * se, (dist, u, emp)

    def test_normal_sample_moments(self):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
        x = Normal(mu=2.0, sigma=0.5).sample(rng, 200_000)
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

    def test_round_trip_through_spec_string(self):
        for dist in ALL_DISTS:
            assert parse_spec(dist.spec_string()) == dist

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

    def test_invalid_shape_values(self):
        with pytest.raises(DriftRecordsError):
            Dagum(b=-1.0, q=2.0)
        with pytest.raises(DriftRecordsError):
            Dagum(b=1.0, q=0.0)
        with pytest.raises(DriftRecordsError):
            Normal(mu=0.0, sigma=0.0)
        with pytest.raises(DriftRecordsError):
            Uniform(lo=1.0, hi=1.0)
        with pytest.raises(DriftRecordsError):
            Exponential(rate=-2.0)

    def test_non_finite_parameters(self):
        for make in (
            lambda: Normal(mu=0.0, sigma=math.inf),
            lambda: Normal(mu=math.nan, sigma=1.0),
            lambda: Uniform(lo=-math.inf, hi=1.0),
            lambda: Exponential(rate=math.inf),
            lambda: Dagum(b=math.inf, q=1.0),
            lambda: parse_spec("uniform:hi=inf"),
            lambda: parse_spec("normal:sigma=nan"),
        ):
            with pytest.raises(DriftRecordsError):
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
    against 30-digit mpmath, for every family.  Numerical derivatives of
    order 5 and 6 lose about 30 digits far in a heavy tail, where g is
    about 1/u and g^(6) about 1/u^7, so they are taken at 60 digits."""

    @pytest.fixture(autouse=True)
    def _precision(self):
        with mp.workdps(30):
            yield

    @staticmethod
    def _diff(g, u, order):
        with mp.workdps(60):
            return mp.diff(g, u, order)

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.spec_string())
    def test_integral_derivatives_and_variation(self, dist):
        g = _mp_log_cdf(dist)
        pts = _em_points(dist)
        for u in pts:
            d1 = float(mp.diff(g, u, 1))
            d3 = float(mp.diff(g, u, 3))
            d5 = float(self._diff(g, u, 5))
            assert float(dist.log_cdf_d1(u)) == pytest.approx(d1, rel=1e-10), u
            assert float(dist.log_cdf_d3(u)) == pytest.approx(d3, rel=1e-8), u
            assert float(dist.log_cdf_d5(u)) == pytest.approx(d5, rel=1e-8), u
        for a, b in zip(pts, pts[1:]):
            # G' = g: the antiderivative's increment is the integral of g
            got = float(dist.log_cdf_integral(b) - dist.log_cdf_integral(a))
            want = mp.quad(g, [a, b])
            scale = abs(float(dist.log_cdf_integral(a))) + abs(float(want))
            assert abs(got - float(want)) <= 1e-13 * scale, (a, b)
        # the last interval spans every interior extremum of the normal g^(5)
        for a, b in list(zip(pts, pts[1:])) + [(pts[0], pts[-1])]:
            # int_a^b |g^(6)|: g^(6) keeps one sign on each piece, checked
            # on a grid, so the integral is the sum of |g^(5)| increments
            extrema = []
            if dist.kind == "normal":
                extrema = [dist.mu + dist.sigma * z for z in _special.D5_EXTREMA_Z]
            pieces = [a] + [e for e in extrema if a < e < b] + [b]
            total = mp.mpf(0)
            for lo, hi in zip(pieces, pieces[1:]):
                signs = {mp.sign(self._diff(g, t, 6)) for t in mp.linspace(lo, hi, 9)[1:-1]}
                assert len(signs) == 1, (lo, hi, signs)
                total += abs(self._diff(g, hi, 5) - self._diff(g, lo, 5))
            bound = float(dist.log_cdf_d5_variation(
                a, b, dist.log_cdf_d5(a), dist.log_cdf_d5(b)))
            assert bound >= float(total) * (1.0 - 1e-9), (a, b)
            assert bound <= float(total) * (1.0 + 1e-6) + 1e-300, (a, b)

    def test_normal_extrema_constants(self):
        g = _mp_log_cdf(Normal())
        for z, peak in zip(_special.D5_EXTREMA_Z, _special.D5_EXTREMA):
            assert abs(self._diff(g, z, 6)) < 1e-15
            assert float(self._diff(g, z, 5)) == pytest.approx(peak, rel=1e-15)

    @pytest.mark.parametrize("dist", [Gumbel(), Normal(), Exponential()],
                             ids=lambda d: d.spec_string())
    def test_tail_limits_at_infinity(self, dist):
        # the engine evaluates these at +inf for the infinite product
        for meth in (dist.log_cdf_integral, dist.log_cdf_d1, dist.log_cdf_d3,
                     dist.log_cdf_d5):
            assert float(meth(math.inf)) == 0.0
        assert float(dist.log_cdf_d5_variation(math.inf, math.inf, 0.0, 0.0)) == 0.0

    def test_normal_far_tails_stay_finite(self):
        dist = Normal()
        z = np.array([-1e6, -40.0, -12.5, 12.0, 40.0, 1e6])
        for meth in (dist.log_cdf_integral, dist.log_cdf_d1, dist.log_cdf_d3,
                     dist.log_cdf_d5):
            assert np.all(np.isfinite(meth(z)))
        g = _mp_log_cdf(dist)
        for u in (-40.0, -12.5, -11.5):
            assert float(dist.log_cdf_d3(u)) == pytest.approx(
                float(mp.diff(g, u, 3)), rel=1e-9
            )
        # just right of the series' switch at z = -12 the closed form of
        # g^(5) cancels to about 1e-6 of its value; the series is exact
        for u, rel in ((-40.0, 1e-14), (-12.5, 1e-14), (-12.0, 2e-6), (-11.5, 1e-7)):
            assert float(dist.log_cdf_d5(u)) == pytest.approx(
                float(mp.diff(g, u, 5)), rel=rel
            )
            want = mp.quad(g, [u, -3, 0, 3, mp.inf])
            assert float(dist.log_cdf_integral(u)) == pytest.approx(
                float(-want), rel=1e-13
            )


def _two_branch_norm_quantile(p):
    """The previous norm_quantile: both tail rational functions on every
    tail point, then np.where.  Kept as the bit-for-bit reference."""
    def ratpoly(num_coef, den_coef, r):
        num, den = np.zeros_like(r), np.zeros_like(r)
        for c in num_coef[::-1]:
            num = num * r + c
        for c in den_coef[::-1]:
            den = den * r + c
        return num / den

    out = np.empty_like(p)
    q = p - 0.5
    central = np.abs(q) <= 0.425
    r = 0.180625 - q[central] ** 2
    out[central] = q[central] * ratpoly(_special._A, _special._B, r)
    pt = p[~central]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        x = np.where(
            r <= 5.0,
            ratpoly(_special._C, _special._D, np.minimum(r, 5.0) - 1.6),
            ratpoly(_special._E, _special._F, np.maximum(r, 5.0) - 5.0),
        )
    x = np.where(np.isinf(r), np.inf, x)
    out[~central] = np.where(pt < 0.5, -x, x)
    return out


class TestNormQuantile:
    """Every normal variate of the Monte Carlo engine goes through
    norm_quantile, so its output is pinned bit for bit."""

    # branch edges, both ends of (0, 1), the r = 5 switch, subnormals, NaN
    EDGES = [0.0, 1.0, 0.075, 0.925, math.exp(-25.0), 5e-324, 1e-310,
             2.2250738585072014e-308, math.nan]

    def points(self):
        u = np.random.default_rng(20201).random(100_000)
        return np.concatenate([u, self.EDGES])

    def test_central_branch_digest(self):
        # |p - 0.5| <= 0.425 takes +, -, * and / only, so these bits are
        # the same on every IEEE machine
        p = self.points()
        with np.errstate(invalid="ignore"):
            p = p[np.abs(p - 0.5) <= 0.425]
        digest = hashlib.sha256(_special.norm_quantile(p).tobytes()).hexdigest()
        assert digest == (
            "02bc61534bb5267621ec0db6e4a983ee81a6e2c01d3e9dcd0ce74c90ae6f8156"
        )

    def test_matches_the_two_branch_form_bit_for_bit(self):
        # the tails go through np.log, whose last bit depends on the SIMD
        # path numpy takes on the CPU, so they are checked against the
        # reference on the same machine rather than against a digest
        p = self.points()
        got = _special.norm_quantile(p)
        assert got.tobytes() == _two_branch_norm_quantile(p).tobytes()

    def test_scalars_and_endpoints(self):
        assert _special.norm_quantile(0.0) == -math.inf
        assert _special.norm_quantile(1.0) == math.inf
        assert math.isnan(_special.norm_quantile(math.nan))
        assert _special.norm_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-15)

    def test_scalar_path_matches_array_path_bit_for_bit(self):
        # a Python float takes the pure-float path; each value must carry
        # the bits the array path gives it
        # math.log in place of np.log changes about one tail value in
        # 10,000, so the tails get most of the points
        rng = np.random.default_rng(20202)
        tiny = 10.0 ** -rng.uniform(0.0, 300.0, 5_000)
        p = np.concatenate([
            rng.random(20_000), rng.uniform(0.0, 0.075, 60_000),
            rng.uniform(0.925, 1.0, 20_000), tiny, 1.0 - tiny,
            self.EDGES, [0.5, 1e-300, 1.0 - 1e-16],
        ])
        scalars = [_special.norm_quantile(float(v)) for v in p]
        assert all(type(x) is float for x in scalars)
        assert np.array(scalars).tobytes() == _special.norm_quantile(p).tobytes()


def _all_points_log_ndtr_d3(z):
    """The previous log_ndtr_d3: the Mills series on every point, then
    np.where.  Kept as the bit-for-bit reference."""
    zc = np.clip(z, _special._Z_LEFT, 40.0)
    r = _special.log_ndtr_d1(zc)
    d = zc + r
    inner = r * (d * (d + r) - 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        s = -np.minimum(z, _special._Z_LEFT)
        left = 2.0 / s**3 + sum(
            bk * (2 * k) * (2 * k + 1) * (2 * k + 2) / s ** (2 * k + 3)
            for k, bk in enumerate(_special._MILLS_LOG, start=1)
        )
    return np.where(z < _special._Z_LEFT, left, inner)


def _all_points_log_ndtr_integral(z):
    """The previous log_ndtr_integral: table, left series and right tail
    on every point, then np.where.  Kept as the bit-for-bit reference; it
    fails on NaN."""
    lo, hi = _special._Z_LEFT, _special._Z_RIGHT
    edges, cum, (x, w) = _special._integral_table()
    zt = np.clip(z, lo, hi)
    k = np.minimum(((zt - lo) / _special._PANEL).astype(np.int64), edges.shape[0] - 2)
    right = edges[k + 1]
    half = 0.5 * (right - zt)
    pts = (0.5 * (right + zt))[..., None] + half[..., None] * x
    table = cum[k + 1] - half * (scipy.special.log_ndtr(pts) @ w)
    with np.errstate(invalid="ignore", over="ignore"):
        s = -np.clip(z, -1e100, lo)
        left = cum[0] + _special._left_tail_integral(-lo, s)
    return np.where(
        z >= hi, _special._right_tail_integral(z), np.where(z < lo, left, table)
    )


class TestLogNdtrBranches:
    """log_ndtr_d3 and log_ndtr_integral run each branch on its own points
    only; their output is pinned to the all-points form bit for bit."""

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
        assert _special.log_ndtr_d3(z).tobytes() == _all_points_log_ndtr_d3(z).tobytes()

    def test_integral_matches_all_points_form_bit_for_bit(self):
        # -inf is left out: the all-points form clamps it to -1e100
        z = self.points()
        z = z[z > -math.inf]
        got = _special.log_ndtr_integral(z)
        assert got.tobytes() == _all_points_log_ndtr_integral(z).tobytes()

    def test_all_central_points_skip_both_tails(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a tail branch ran on central points")

        monkeypatch.setattr(_special, "_left_tail_integral", fail)
        monkeypatch.setattr(_special, "_right_tail_integral", fail)
        z = np.random.default_rng(20204).uniform(-11.9, 7.9, 4_000)
        assert np.all(np.isfinite(_special.log_ndtr_integral(z)))
        assert np.all(_special.log_ndtr_d3(z) > 0.0)

    def test_integral_nan_and_infinities(self):
        # NaN used to reach the table as an int64 index and raise IndexError
        got = _special.log_ndtr_integral(np.array([math.nan, math.inf, -math.inf, 0.0]))
        assert math.isnan(got[0])
        assert got[1] == 0.0
        assert got[2] == math.inf
        assert got[3] == pytest.approx(0.47753533981, rel=1e-10)
        assert math.isnan(_special.log_ndtr_integral(math.nan))
        assert math.isnan(_special.log_ndtr_d3(math.nan))
        assert math.isnan(Normal().log_cdf_integral(math.nan))
