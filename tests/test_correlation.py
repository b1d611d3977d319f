import math

import mpmath as mp
import numpy as np
import pytest

from driftrecords import (
    DriftRecordsError,
    IllConditionedError,
    LdmConfig,
    dependence_index,
    dependence_index_result,
    gumbel_l_inf,
    joint_prob_consecutive,
    p_n_delta,
    pareto_l_n,
    pareto_p_n_delta,
    correlation,
    parse_spec,
    probability,
)
from driftrecords.correlation import BRANCH_NEGATIVE, BRANCH_NONNEGATIVE


def ldm(spec, c, delta):
    return LdmConfig(parse_spec(spec), c=c, delta=delta)


def mc_joint_and_marginals(cfg, n, reps, seed):
    """Direct simulation of the two consecutive record indicators."""
    rng = np.random.default_rng(seed)
    u = rng.random((reps, n + 1))
    x = cfg.dist.quantile(u)
    y = x + cfg.c * np.arange(1, n + 2)
    peak = np.maximum.accumulate(y, axis=1)
    rec_n = y[:, n - 1] > peak[:, n - 2] + cfg.delta
    rec_n1 = y[:, n] > peak[:, n - 1] + cfg.delta
    both = rec_n & rec_n1
    return both.mean(), rec_n.mean(), rec_n1.mean(), both.std(ddof=1) / math.sqrt(reps)


class TestJointProbability:
    def test_rejects_index_below_one(self):
        for n in (0, -3):
            with pytest.raises(DriftRecordsError):
                joint_prob_consecutive(ldm("gumbel", 1.0, 0.5), n)

    def test_branch_labels(self):
        assert joint_prob_consecutive(ldm("gumbel", 1.0, 0.5), 4).branch == (
            BRANCH_NONNEGATIVE
        )
        assert joint_prob_consecutive(ldm("gumbel", 1.0, -0.5), 4).branch == (
            BRANCH_NEGATIVE
        )

    def test_branches_agree_at_zero_threshold(self):
        for spec, c in [("gumbel", 0.8), ("normal", 0.5)]:
            above = joint_prob_consecutive(ldm(spec, c, 0.0), 5, tol=1e-9)
            below = joint_prob_consecutive(ldm(spec, c, -1e-12), 5, tol=1e-9)
            assert above.branch != below.branch
            assert above.value == pytest.approx(below.value, abs=1e-7)

    def test_bounded_by_marginals(self):
        for spec, c, delta, n in [
            ("gumbel", 1.0, 0.5, 6),
            ("gumbel", 1.0, -0.5, 6),
            ("exp", 0.7, 0.2, 9),
            ("uniform", 0.4, -0.2, 5),
        ]:
            cfg = ldm(spec, c, delta)
            joint = joint_prob_consecutive(cfg, n, tol=1e-9)
            pn = p_n_delta(cfg, n, tol=1e-9).value
            pn1 = p_n_delta(cfg, n + 1, tol=1e-9).value
            assert 0.0 <= joint.value <= 1.0
            assert joint.value <= min(pn, pn1) + 1e-7

    def test_matches_simulation_nonnegative_threshold(self):
        cfg = ldm("gumbel", 1.0, 0.5)
        n, reps = 5, 400_000
        joint = joint_prob_consecutive(cfg, n, tol=1e-9)
        mc, _, _, se = mc_joint_and_marginals(cfg, n, reps, seed=20_240_101)
        assert abs(joint.value - mc) < 4.0 * se

    def test_matches_simulation_negative_threshold(self):
        # the negative branch adds the two-sided correction integral
        cfg = ldm("gumbel", 1.0, -0.5)
        n, reps = 5, 400_000
        joint = joint_prob_consecutive(cfg, n, tol=1e-8)
        mc, _, _, se = mc_joint_and_marginals(cfg, n, reps, seed=77)
        assert abs(joint.value - mc) < 4.0 * se

    def test_matches_simulation_normal_noise(self):
        cfg = ldm("normal", 0.6, -0.3)
        n, reps = 4, 300_000
        joint = joint_prob_consecutive(cfg, n, tol=1e-8)
        mc, _, _, se = mc_joint_and_marginals(cfg, n, reps, seed=5)
        assert abs(joint.value - mc) < 4.0 * se

    def test_error_bound_is_reported(self):
        res = joint_prob_consecutive(ldm("gumbel", 1.0, 0.5), 5, tol=1e-8)
        assert 0.0 < res.abs_error_bound < 1e-6

    @pytest.mark.parametrize("spec, delta, c", [
        # ids name threshold and law, and the trend when it is negative
        pytest.param(spec, delta, c, id=f"{delta}-{spec}" + ("" if c > 0 else f"-c={c}"))
        for c in (0.3, -0.3)
        for delta in (0.4, -0.4)
        for spec in ("gumbel", "normal", "pareto1", "uniform", "exp")
    ])
    def test_first_pair_is_second_marginal(self, spec, delta, c):
        # observation 1 is always a record, so the pair (1, 2) is p_2; for
        # delta < 0 the window term has to carry its share for this to hold,
        # and the empty product of n = 1 must not cut the window
        cfg = ldm(spec, c, delta)
        joint = joint_prob_consecutive(cfg, 1)
        p2 = p_n_delta(cfg, 2)
        assert abs(joint.value - p2.value) <= joint.abs_error_bound + p2.abs_error_bound

    @pytest.mark.parametrize("quantity", [joint_prob_consecutive, dependence_index_result])
    @pytest.mark.parametrize("delta", [0.5, -0.5])
    def test_one_quadrature_per_call(self, monkeypatch, delta, quantity):
        # one integrate call per joint, and per index, whose p_n, p_{n+1}
        # and joint share it; one log-product per integrand call
        calls, evals, products = [], [], []
        integrate, log_product = probability.integrate, probability._log_product

        def counting_integrate(fn, *args, **kwargs):
            def integrand(x):
                before = len(products)
                out = fn(x)
                evals.append(len(products) - before)
                return out

            calls.append(args)
            return integrate(integrand, *args, **kwargs)

        def counting_log_product(*args):
            products.append(args)
            return log_product(*args)

        monkeypatch.setattr(probability, "integrate", counting_integrate)
        monkeypatch.setattr(probability, "_log_product", counting_log_product)
        for spec, c, n in [("gumbel", 1.0, 5), ("pareto1", -0.5, 4), ("uniform", 0.05, 10),
                           ("gumbel", 1.0, 1), ("pareto1", -0.5, 1)]:
            calls.clear()
            evals.clear()
            quantity(ldm(spec, c, delta), n)
            assert len(calls) == 1, (spec, c, n)
            assert evals and set(evals) == {1}, (spec, c, n, evals)


LAWS = ("gumbel", "normal", "pareto1", "dagum:b=1,q=2", "uniform", "exp")


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("fn", [joint_prob_consecutive, dependence_index_result,
                                dependence_index])
def test_tolerance_must_be_positive(fn, tol):
    # a NaN tolerance used to return a value whose bound was never
    # enforced, and tol <= 0 to end in QuadratureError after 4096 panels
    with pytest.raises(DriftRecordsError, match="tol must be positive"):
        fn(ldm("gumbel", 1.0, 0.5), 5, tol=tol)


class TestDependenceIndex:
    @pytest.mark.parametrize("spec, delta, c", [
        pytest.param(spec, delta, c, id=f"{delta}-{spec}-c={c}")
        for c in (0.3, -0.3)
        for delta in (0.4, -0.4)
        for spec in LAWS
    ])
    def test_marginals_match_p_n_delta(self, monkeypatch, spec, delta, c):
        # the index's p_n and p_{n+1} are the record integral with the
        # weights f and f F(x + c n - delta); each must agree with
        # p_n_delta within both bounds.  At c < 0 p_{n+1} vanishes from
        # small n on (uniform: p_3 = 0 at delta = 0.4), and the index
        # refuses such n.
        n = 5 if c > 0 else 1 if spec == "uniform" else 2
        seen = []
        real = correlation._record_integral
        monkeypatch.setattr(
            correlation, "_record_integral",
            lambda *a, **kw: seen.append(real(*a, **kw)) or seen[-1],
        )
        cfg = ldm(spec, c, delta)
        res = dependence_index_result(cfg, n)
        (pn, pn1, _), = seen
        assert (res.p_n, res.p_n1) == (1.0 if n == 1 else pn.value, pn1.value)
        for got, m in ((pn, n), (pn1, n + 1)):
            want = p_n_delta(cfg, m)
            assert abs(got.value - want.value) <= got.abs_error_bound + want.abs_error_bound, (
                m, got, want)

    def test_first_index_has_p_1_exactly_one(self):
        for delta in (0.5, -0.5):
            res = dependence_index_result(ldm("normal", 0.3, delta), 1)
            assert res.p_n == 1.0
            p2 = p_n_delta(ldm("normal", 0.3, delta), 2)
            assert res.p_n1 == pytest.approx(p2.value, abs=2.0 * p2.abs_error_bound)

    def test_matches_pareto_closed_form(self):
        for delta, n in [(-0.5, 5), (0.5, 5), (2.0, 7), (-0.5, 10)]:
            got = dependence_index(ldm("pareto1", 1.0, delta), n, tol=1e-8)
            assert got == pytest.approx(pareto_l_n(delta, n), abs=1e-6)

    def test_approaches_gumbel_limit(self):
        for c, delta in [(1.0, -0.5), (0.5, 2.0)]:
            got = dependence_index(ldm("gumbel", c, delta), 400, tol=1e-9)
            assert got == pytest.approx(gumbel_l_inf(c, delta), abs=1e-4)

    def test_result_fields_are_consistent(self):
        cfg = ldm("gumbel", 1.0, -0.5)
        res = dependence_index_result(cfg, 6, tol=1e-9)
        assert res.value == pytest.approx(
            res.joint.value / (res.p_n * res.p_n1), rel=1e-12
        )
        assert res.p_n == pytest.approx(p_n_delta(cfg, 6, tol=1e-9).value, abs=1e-8)
        assert res.p_n1 == pytest.approx(p_n_delta(cfg, 7, tol=1e-9).value, abs=1e-8)
        assert res.abs_error_bound > 0.0

    def test_attraction_repulsion_sign(self):
        # negative thresholds cluster records, large positive ones repel
        assert dependence_index(ldm("gumbel", 1.0, -1.0), 8) > 1.0
        assert dependence_index(ldm("gumbel", 1.0, 2.0), 8) < 1.0
        assert dependence_index(ldm("pareto1", 1.0, -1.0), 8) > 1.0

    def test_near_independence_at_zero_threshold_gumbel(self):
        got = dependence_index(ldm("gumbel", 1.0, 0.0), 300, tol=1e-9)
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_ill_conditioned_marginals_raise(self):
        # at loose tolerance the tiny marginal cannot support division
        cfg = ldm("pareto1", 1.0, 0.0)
        with pytest.raises(IllConditionedError):
            dependence_index_result(cfg, 50, tol=1e-2)


# cdf, pdf, support and outer integration window of each audited law in
# mpmath.  The windows of the light-tailed laws leave out mass below 1e-30;
# the heavy-tailed laws are integrated to infinity.
_MP_LAWS = {
    "normal": (mp.ncdf, mp.npdf, (-mp.inf, mp.inf), (-12, 12)),
    "gumbel": (lambda x: mp.exp(-mp.exp(-x)), lambda x: mp.exp(-x - mp.exp(-x)),
               (-mp.inf, mp.inf), (-6, 75)),
    "pareto1": (lambda x: 1 - 1 / x, lambda x: 1 / x**2, (1, mp.inf), (1, mp.inf)),
    "dagum:b=1,q=2": (lambda x: (x / (x + 1)) ** 2, lambda x: 2 * x / (x + 1) ** 3,
                      (0, mp.inf), (0, mp.inf)),
    "uniform": (lambda x: x, lambda x: mp.mpf(1), (0, 1), (0, 1)),
    "exp": (lambda x: -mp.expm1(-x), lambda x: mp.exp(-x), (0, mp.inf), (0, 75)),
}


def _nested_joint_reference(spec, c, delta, n):
    """(joint, p_n, p_{n+1}) at 30 digits from the nested definition.

    With observation n at s and observation n+1 at t, both are
    delta-records when t > s - c + delta and every earlier observation k
    lies below min(s, t + c) - delta + c (n - k).  For delta < 0 the part
    with t in the window (s - c + delta, s - c) is an inner integral over t,
    done by 48-point Gauss-Legendre on each piece between kinks; the outer
    integrals are mp.quad over the pieces between kinks.
    """
    cdf, pdf, (a, b), window = _MP_LAWS[spec]
    with mp.workdps(30):
        c, delta = mp.mpf(c), mp.mpf(delta)
        ends = [mp.mpf(e) for e in (a, b) if mp.isfinite(e)]
        rule = mp.calculus.quadrature.GaussLegendre(mp.mp).calc_nodes(5, mp.mp.prec)

        def F(x):
            return mp.mpf(0) if x <= a else mp.mpf(1) if x >= b else cdf(x)

        def f(x):
            return pdf(x) if a < x < b else mp.mpf(0)

        def P(y, m):  # prod_{i=1..m} F(y + c i)
            out = mp.mpf(1)
            for i in range(1, m + 1):
                out *= F(y + c * i)
            return out

        def pieces(lo, hi, kinks):
            return [lo] + sorted({k for k in kinks if lo < k < hi}) + [hi]

        def inner(s):
            lo, hi = max(s - c + delta, a), min(s - c, b)
            if hi <= lo:
                return mp.mpf(0)
            kinks = [e - c + delta - c * i for e in ends for i in range(n + 1)]
            pts = pieces(lo, hi, kinks)
            total = mp.mpf(0)
            for u, v in zip(pts, pts[1:]):
                h, m = (v - u) / 2, (v + u) / 2
                total += h * mp.fsum(
                    w * f(m + h * x) * P(m + h * x + c - delta, n - 1) for x, w in rule
                )
            return total

        def joint(s):
            v = (1 - F(s + max(delta, 0) - c)) * P(s - delta, n - 1)
            if delta < 0:
                v += inner(s)
            return f(s) * v

        lo, hi = (mp.mpf(w) for w in window)
        kinks = [k for e in ends for k in (e, e + c, e + c - delta, e - max(delta, 0) + c)]
        kinks += [e + d - c * i for e in ends for d in (0, delta) for i in range(n + 2)]
        pts = pieces(lo, hi, kinks)
        values = [mp.quad(joint, pts)]
        values += [mp.quad(lambda x: f(x) * P(x - delta, m), pts) for m in (n - 1, n)]
        return tuple(float(v) for v in values)


# (joint, p_n, p_{n+1}) from _nested_joint_reference, frozen: each law at
# both signs of delta, with delta < 0 at small and negative trends.
JOINT_REFERENCE = {
    ('normal', 0.1, -0.5, 20): (
        0.09841963168280467, 0.3013531389731551, 0.3009954049407651),
    ('normal', 0.5, 0.5, 10): (
        0.08526920687208416, 0.34936840256101914, 0.34936730165120766),
    ('normal', -0.2, -1.0, 5): (
        0.10950688562439104, 0.32541010544493776, 0.25071139267429565),
    ('gumbel', 1.0, -0.5, 5): (
        0.568310679864698, 0.7426542919922582, 0.7404071132015534),
    ('gumbel', 0.2, 0.5, 10): (
        0.012903325342560813, 0.13858527426158831, 0.13442840460197422),
    ('pareto1', -0.5, -1.0, 4): (
        0.044593588656428026, 0.23770307217607559, 0.17574205256839023),
    ('pareto1', 0.04, -0.5, 5): (
        0.07032217805258151, 0.25055344333162477, 0.20417166045346816),
    ('pareto1', 0.5, 0.5, 10): (
        0.022844405929297762, 0.14211259533757126, 0.13141365266740815),
    ('dagum:b=1,q=2', 1.0, -0.5, 10): (
        0.05387922815033033, 0.1785191497233341, 0.1637863162827074),
    ('dagum:b=1,q=2', 0.03, -0.5, 5): (
        0.04631201643322456, 0.22071648543903516, 0.1819313191178581),
    ('uniform', 0.05, -0.3, 10): (
        0.3428596506959079, 0.5888831632561682, 0.5886170780350698),
    ('uniform', 0.3, -0.2, 3): (
        0.736, 0.8636666666666667, 0.8636666666666667),
    ('uniform', 0.3, 0.2, 5): (
        0.22622599999999998, 0.536275, 0.536275),
    ('exp', 0.08, -0.5, 5): (
        0.17695322771428532, 0.3878966563440939, 0.3395619109660399),
    ('exp', 0.5, -0.5, 20): (
        0.4583876056100742, 0.6292166919779535, 0.62920952606251),
    ('exp', 0.7, 0.2, 9): (
        0.3017825904451617, 0.5397809111293317, 0.539323477756293),
    ('exp', -0.3, -1.0, 5): (
        0.053776989637465966, 0.23465612543020625, 0.16171621740391676),
}


class TestBoundAudit:
    """|value - reference| <= abs_error_bound for the joint probability and
    the dependence index."""

    @pytest.mark.parametrize("key", sorted(JOINT_REFERENCE, key=str), ids=str)
    def test_against_nested_mpmath(self, key):
        spec, c, delta, n = key
        joint, pn, pn1 = JOINT_REFERENCE[key]
        res = dependence_index_result(ldm(spec, c, delta), n)
        assert abs(res.joint.value - joint) <= res.joint.abs_error_bound, (
            res.joint, joint
        )
        want = joint / (pn * pn1)
        assert abs(res.value - want) <= res.abs_error_bound, (res, want)

    def test_nested_reference_matches_pareto_closed_form(self):
        # the frozen references' generator, run live where closed forms hold
        joint, pn, pn1 = _nested_joint_reference("pareto1", 1.0, -0.5, 3)
        assert pn == pytest.approx(pareto_p_n_delta(-0.5, 3), rel=1e-14)
        assert pn1 == pytest.approx(pareto_p_n_delta(-0.5, 4), rel=1e-14)
        assert joint / (pn * pn1) == pytest.approx(pareto_l_n(-0.5, 3), rel=1e-14)

    def test_pareto_index_at_unit_trend(self):
        for delta in (-5.0, -2.0, -1.0, -0.5, -0.1):
            for n in (3, 4, 5, 10, 30, 100, 300):
                res = dependence_index_result(ldm("pareto1", 1.0, delta), n)
                want = pareto_l_n(delta, n)
                assert abs(res.value - want) <= res.abs_error_bound, (delta, n, res, want)
