"""End-to-end acceptance checks.

One test per advertised guarantee, each at its stated tolerance, so a
verbose run reads as a pass/fail scorecard for the package.  Where the
model gives an exact value (04c, 08b), the check asserts that value and
its docstring carries the derivation.
"""
import math

import numpy as np
import pytest
import scipy.integrate

from driftrecords import (
    LdmConfig,
    SimulationConfig,
    analyze,
    asymptotic_variance_mc,
    bootstrap_histogram,
    dagum_p_n0,
    dagum_p_n0_asymptotic,
    delta_record_flags,
    dependence_index_result,
    gaussian_interval,
    gumbel_p_delta,
    gumbel_p_n_delta,
    mc_record_rate,
    p_delta,
    p_n_delta,
    pareto_l_n,
    pareto_p_n_delta,
    parse_spec,
    variance_estimator,
)

C_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
DELTA_GRID = (-2.0, -0.5, 0.0, 0.5, 2.0)
N_GRID = (2, 5, 20, 100)

H_10000 = 9.787606036044382


def ldm(spec, c, delta):
    return LdmConfig(parse_spec(spec), c=c, delta=delta)


def test_criterion_01_quadrature_matches_closed_forms():
    for c in C_GRID:
        for delta in DELTA_GRID:
            for n in N_GRID:
                got = p_n_delta(ldm("gumbel", c, delta), n, tol=1e-8).value
                want = gumbel_p_n_delta(c, delta, n)
                assert abs(got - want) <= 1e-6, (c, delta, n)
    for delta in DELTA_GRID:
        for n in N_GRID:
            got = p_n_delta(ldm("pareto1", 1.0, delta), n, tol=1e-8).value
            want = pareto_p_n_delta(delta, n)
            assert abs(got - want) <= 1e-6, (delta, n)


def test_criterion_02_asymptotic_probability():
    for c in C_GRID:
        for delta in DELTA_GRID:
            got = p_delta(ldm("gumbel", c, delta), tol=1e-8).value
            assert abs(got - gumbel_p_delta(c, delta)) <= 1e-6, (c, delta)
            assert p_delta(ldm("pareto1", c, delta)).value == 0.0


def test_criterion_03_dagum_ladder_and_asymptotics():
    for q in range(1, 8):
        for n in (5, 37, 200):
            integral, _ = scipy.integrate.quad(
                lambda y: (y - 1.0) ** (q - 1.0) / y, 1.0, n
            )
            want = q / (n - 1.0) ** q * integral
            assert abs(dagum_p_n0(float(q), n) - want) <= 1e-8, (q, n)
    n = 10 ** 6
    for q in (0.5, 1.0, 2.0, 3.0):
        ratio = dagum_p_n0(q, n) / dagum_p_n0_asymptotic(q, n)
        assert abs(ratio - 1.0) <= 0.02, q


def test_criterion_04a_dependence_index_matches_pareto_form():
    for n in (5, 10, 50):
        for delta in (-2.0, -0.5, 0.5, 1.0, 3.0):
            got = dependence_index_result(ldm("pareto1", 1.0, delta), n, tol=1e-7).value
            assert abs(got - pareto_l_n(delta, n)) <= 1e-4, (delta, n)


def test_criterion_04b_dependence_index_matches_gumbel_limit():
    from driftrecords import gumbel_l_inf

    for delta in (-1.0, 0.0, 1.0):
        got = dependence_index_result(ldm("gumbel", 1.0, delta), 500, tol=1e-9).value
        assert abs(got - gumbel_l_inf(1.0, delta)) <= 1e-3, delta


def test_criterion_04c_pareto_large_threshold_limit_at_moderate_size():
    """Unit-Pareto dependence index: exact value at moderate size, and
    the approach to its large-threshold limit 1 - log 2.

    At delta = 50, n = 10 with trend 1 the index is 0.3643417335.  Three
    independent routes agree on it: the closed form pareto_l_n; the
    quadrature route dependence_index_result at tol=1e-9, within 3e-11; and a
    30-digit mpmath integration of joint / (p_n p_{n+1}), within 1e-15.
    For delta > 0 a record at n forces the maximum at n + 1 to be Y_n,
    so the joint probability is the integral of
    f(x) prod_{i<n} F(x + n - i - delta) (1 - F(x + delta - 1)) dx.
    The limit 0.3068528194 is therefore 5.7e-2 away at this size.  The gap shrinks steadily with
    the threshold: 5.7e-2, 3.5e-2, 6.2e-3, 9.2e-4, 1.2e-4 and 1.5e-5 at
    delta = 50, 1e2, 1e3, 1e4, 1e5 and 1e6, and is inside the 1e-3
    tolerance from delta = 1e4 on; it is checked at 1e5 and 1e6.
    """
    reference = 0.3643417335
    assert abs(pareto_l_n(50.0, 10) - reference) <= 1e-6
    got = dependence_index_result(ldm("pareto1", 1.0, 50.0), 10, tol=1e-9).value
    assert abs(got - reference) <= 1e-6

    limit = 1.0 - math.log(2.0)
    deltas = (50.0, 1e2, 1e3, 1e4, 1e5, 1e6)
    gaps = [abs(pareto_l_n(d, 10) - limit) for d in deltas]
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-2] <= 1e-3 and gaps[-1] <= 1e-3, gaps


def test_criterion_05_zero_trend_jump():
    above = p_delta(ldm("uniform", 1e-3, -0.5)).value
    assert 0.45 <= above <= 0.55
    below = p_delta(ldm("uniform", -1e-3, -0.5)).value
    assert below == 0.0


def test_criterion_06_law_of_large_numbers():
    c = math.log(2.0)
    s = mc_record_rate(
        SimulationConfig(ldm=ldm("gumbel", c, 0.0), n=10_000,
                         replications=200, seed=2024),
        workers=4,
    )
    se = s.rate_stderr
    assert abs(s.mean_rate - 0.5) < 4.0 * se

    classical = mc_record_rate(
        SimulationConfig(ldm=ldm("gumbel", 0.0, 0.0), n=10_000,
                         replications=200, seed=2025),
        workers=4,
    )
    mean_count = classical.counts.mean()
    count_se = classical.counts.std(ddof=1) / math.sqrt(200)
    assert abs(mean_count - H_10000) < 4.0 * count_se


def test_criterion_07_central_limit_theorem():
    c = math.log(2.0)
    model = ldm("gumbel", c, 0.0)
    n = 10_000
    counts = mc_record_rate(
        SimulationConfig(ldm=model, n=n, replications=1000, seed=2024),
        workers=4,
    ).counts
    z = math.sqrt(n) * (counts / n - gumbel_p_delta(c, 0.0))
    sigma2 = asymptotic_variance_mc(model, seed=0, workers=4)
    var = z.var(ddof=1)
    assert abs(var / sigma2 - 1.0) <= 0.15
    zc = z - z.mean()
    skew = np.mean(zc**3) / np.mean(zc**2) ** 1.5
    assert abs(skew) < 0.2


def test_criterion_08a_stabilization_under_negative_trend_light_tail():
    s = mc_record_rate(
        SimulationConfig(ldm=ldm("normal", -0.1, 0.0), n=10_000,
                         replications=500, seed=77),
        workers=4,
    )
    assert s.stabilization_fraction > 0.99


def test_criterion_08b_stabilization_under_heavy_tail():
    """Unit-Pareto noise with trend -1: the stabilization fraction is
    log 2 at every even horizon, far from the 1 of a finite count.

    The fraction estimates P(no record in (m, n]) with m = n/2.  Write
    Y_i = X_i - i and M_m = max_{i<=m} Y_i.  With F(x) = 1 - 1/x the
    products telescope: P(M_m <= t) = t / (t + m) for t >= 0, and
    P(max_{m<i<=n} Y_i <= t) = (t + m) / (t + n).  Integrating the
    second against the density m / (t + m)^2 of the first gives
    m / (n - m) * log(n / m), which is log 2 = 0.6931 at m = n/2,
    whatever n is.  A finite record count would drive the fraction to 1
    as n grows, as in the light-tailed check above (> 0.99); here the
    positive part of the noise has infinite mean, the count is infinite,
    and the fraction stays at log 2.  Each horizon is checked within
    four binomial standard errors of log 2, at n = 10^3 and 10^4, so the
    fraction is seen not to move toward 1 as the horizon grows.
    """
    reps = 500
    band = 4.0 * math.sqrt(math.log(2.0) * (1.0 - math.log(2.0)) / reps)
    for n, seed in ((10_000, 78), (1_000, 79)):
        s = mc_record_rate(
            SimulationConfig(ldm=ldm("pareto1", -1.0, 0.0), n=n,
                             replications=reps, seed=seed),
            workers=4,
        )
        assert abs(s.stabilization_fraction - math.log(2.0)) <= band, n


def test_criterion_09_pipeline_on_calibrated_fixture(fixture_series):
    lo, hi = gaussian_interval(69, 17.0 / 69.0, 0.337, 0.95)
    assert abs(lo - 7.54) <= 0.02
    assert abs(hi - 26.45) <= 0.02

    report = analyze(fixture_series, delta=-1.0)
    boot = bootstrap_histogram(
        report.fit, fixture_series, -1.0, reps=100_000, seed=42, workers=4
    )
    assert abs(boot.q025 - 8.0) <= 1.0
    assert abs(boot.q975 - 26.0) <= 1.0

    estimates = [
        variance_estimator(
            delta_record_flags(fixture_series.value, -1.0), m=m
        ).sigma2
        for m in (6, 7, 8)
    ]
    for a in estimates:
        for b in estimates:
            assert abs(a - b) <= 0.05


def test_criterion_10_property_suite_summary():
    # monotonicity of the record probability in n, delta and c
    cfg = ldm("normal", 0.5, 0.2)
    p_by_n = [p_n_delta(cfg, n, tol=1e-9).value for n in (2, 4, 8, 16)]
    assert all(b <= a + 2e-9 for a, b in zip(p_by_n, p_by_n[1:]))
    p_by_d = [
        p_n_delta(ldm("normal", 0.5, d), 8, tol=1e-9).value
        for d in (-1.0, 0.0, 1.0)
    ]
    assert all(b <= a + 2e-9 for a, b in zip(p_by_d, p_by_d[1:]))
    p_by_c = [
        p_n_delta(ldm("normal", c, 0.2), 8, tol=1e-9).value
        for c in (-0.5, 0.0, 0.5)
    ]
    assert all(b >= a - 2e-9 for a, b in zip(p_by_c, p_by_c[1:]))

    # positive thresholds select a subsequence of the plain records,
    # negative thresholds a supersequence
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = rng.normal(size=60)
        plain = delta_record_flags(y, 0.0).flags
        tight = delta_record_flags(y, 0.75).flags
        loose = delta_record_flags(y, -0.75).flags
        assert not np.any(tight & ~plain)
        assert not np.any(plain & ~loose)

    # affine maps move flags and probabilities together
    y = rng.integers(-100, 100, size=40).astype(np.float64)
    base = delta_record_flags(y, 3.0).flags
    mapped = delta_record_flags(2.0 * y + 7.0, 6.0).flags
    np.testing.assert_array_equal(base, mapped)
    pa = p_n_delta(ldm("uniform:lo=0,hi=1", 0.4, 0.3), 6, tol=1e-10).value
    pb = p_n_delta(ldm("uniform:lo=0,hi=2", 0.8, 0.6), 6, tol=1e-10).value
    assert abs(pa - pb) <= 1e-8

    # one worker or many, the simulator gives bit-identical counts
    cfg = SimulationConfig(ldm=ldm("gumbel", 0.3, 0.1), n=500,
                           replications=48, seed=11)
    np.testing.assert_array_equal(
        mc_record_rate(cfg, workers=1).counts,
        mc_record_rate(cfg, workers=4).counts,
    )
