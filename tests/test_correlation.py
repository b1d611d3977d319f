import math

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
    parse_spec,
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


class TestDependenceIndex:
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
