"""Tests for ES, RS, WRP, and ERP robust logical solution algorithms."""

from __future__ import annotations

import pytest

from repro.core import (
    EarlyTerminatedRobustPartitioning,
    ExhaustiveSearch,
    ParameterSpace,
    RandomSearch,
    WeightedRobustPartitioning,
    aging_threshold,
    compute_plan_diagram,
    measure_coverage,
)
from repro.query import make_optimizer


@pytest.fixture
def setup(four_op_query):
    # Asymmetric levels make op1/op2's ranks cross *between the space
    # corners*: the optimal ordering at pntLo is op3->op2->op1->op0 but
    # at pntHi it is op3->op1->op2->op0, so the space genuinely
    # contains multiple optimal/robust plans.
    est = four_op_query.default_estimates({"sel:1": 1, "sel:2": 3})
    space = ParameterSpace.from_estimates(est, points_per_level=3)
    return four_op_query, space


def _coverage(query, space, plans, epsilon):
    diagram = compute_plan_diagram(space, make_optimizer(query))
    return measure_coverage(plans, diagram, epsilon)


class TestAgingThreshold:
    def test_theorem_1_formula(self):
        # c0 = (1 + ε^{-1/2}) / δ with ε=0.25, δ=0.3 → (1+2)/0.3 = 10.
        assert aging_threshold(0.25, 0.3) == 10

    def test_rounds_up(self):
        assert aging_threshold(0.25, 0.4) == 8  # 7.5 → 8

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.3), (1.0, 0.3), (0.25, 0.0), (0.25, 1.5)])
    def test_invalid_parameters(self, eps, delta):
        with pytest.raises(ValueError):
            aging_threshold(eps, delta)


class TestExhaustiveSearch:
    def test_one_call_per_grid_point(self, setup):
        query, space = setup
        result = ExhaustiveSearch(query, space, epsilon=0.2).run()
        assert result.optimizer_calls == space.n_points
        assert not result.terminated_early
        assert result.unresolved_regions == 0

    def test_full_coverage_at_epsilon_zero(self, setup):
        query, space = setup
        result = ExhaustiveSearch(query, space, epsilon=0.0).run()
        assert _coverage(query, space, result.solution.plans, 0.0) == 1.0

    def test_budget_limits_calls(self, setup):
        query, space = setup
        result = ExhaustiveSearch(query, space, epsilon=0.2, max_calls=10).run()
        assert result.optimizer_calls == 10
        assert result.budget_exhausted

    def test_discovery_log_monotone(self, setup):
        query, space = setup
        result = ExhaustiveSearch(query, space).run()
        calls = [d.at_call for d in result.solution.discoveries]
        assert calls == sorted(calls)
        assert len(calls) == len(result.solution)


class TestRandomSearch:
    def test_deterministic_with_seed(self, setup):
        query, space = setup
        a = RandomSearch(query, space, seed=3).run()
        b = RandomSearch(query, space, seed=3).run()
        assert a.solution.plans == b.solution.plans
        assert a.optimizer_calls == b.optimizer_calls

    def test_stops_after_patience(self, setup):
        query, space = setup
        result = RandomSearch(query, space, patience=5, seed=1).run()
        assert result.terminated_early
        # Last `patience` probes were all misses.
        assert result.optimizer_calls >= 5

    def test_budget_respected(self, setup):
        query, space = setup
        result = RandomSearch(query, space, max_calls=7, patience=10_000, seed=1).run()
        assert result.optimizer_calls <= 7

    def test_finds_subset_of_es_plans(self, setup):
        query, space = setup
        es_plans = set(ExhaustiveSearch(query, space).run().solution.plans)
        rs_plans = set(RandomSearch(query, space, seed=2).run().solution.plans)
        assert rs_plans <= es_plans


class TestWRP:
    def test_full_coverage_when_run_to_completion(self, setup):
        query, space = setup
        epsilon = 0.2
        result = WeightedRobustPartitioning(query, space, epsilon=epsilon).run()
        assert not result.terminated_early
        coverage = _coverage(query, space, result.solution.plans, epsilon)
        assert coverage == 1.0

    def test_fewer_calls_than_exhaustive(self, setup):
        query, space = setup
        wrp = WeightedRobustPartitioning(query, space, epsilon=0.2).run()
        es = ExhaustiveSearch(query, space, epsilon=0.2).run()
        assert wrp.optimizer_calls < es.optimizer_calls

    def test_verified_regions_recorded(self, setup):
        query, space = setup
        result = WeightedRobustPartitioning(query, space, epsilon=0.3).run()
        regions = [
            region
            for plan in result.solution.plans
            for region in result.solution.verified_regions_of(plan)
        ]
        assert regions
        total_points = sum(r.n_points for r in regions)
        assert total_points == space.n_points  # regions tile the space

    def test_weight_skips_counted(self, setup):
        query, space = setup
        result = WeightedRobustPartitioning(query, space, epsilon=0.0).run()
        # ε = 0 forces real partitioning, so weights must be computed.
        assert result.regions_processed > 1
        assert result.weight_computations + result.weight_skips > 0


class TestERP:
    def test_never_more_calls_than_wrp(self, setup):
        query, space = setup
        erp = EarlyTerminatedRobustPartitioning(
            query, space, epsilon=0.2, failure_probability=0.25, area_bound=0.3
        ).run()
        wrp = WeightedRobustPartitioning(query, space, epsilon=0.2).run()
        assert erp.optimizer_calls <= wrp.optimizer_calls

    def test_early_stop_flag_set_when_triggered(self, setup):
        query, space = setup
        result = EarlyTerminatedRobustPartitioning(
            query, space, epsilon=0.2, failure_probability=0.25, area_bound=0.9
        ).run()
        # Tiny threshold (c0 = ceil(3/0.9) = 4) almost surely triggers.
        if result.terminated_early:
            assert result.unresolved_regions >= 0

    def test_high_coverage_despite_early_stop(self, setup):
        query, space = setup
        epsilon = 0.2
        result = EarlyTerminatedRobustPartitioning(
            query, space, epsilon=epsilon
        ).run()
        coverage = _coverage(query, space, result.solution.plans, epsilon)
        assert coverage >= 0.7  # Theorem 1: missed area is bounded

    def test_deterministic(self, setup):
        query, space = setup
        a = EarlyTerminatedRobustPartitioning(query, space, epsilon=0.2).run()
        b = EarlyTerminatedRobustPartitioning(query, space, epsilon=0.2).run()
        assert a.solution.plans == b.solution.plans
        assert a.optimizer_calls == b.optimizer_calls

    def test_looser_epsilon_needs_fewer_plans(self, setup):
        query, space = setup
        tight = EarlyTerminatedRobustPartitioning(query, space, epsilon=0.05).run()
        loose = EarlyTerminatedRobustPartitioning(query, space, epsilon=0.5).run()
        assert len(loose.solution) <= len(tight.solution)

    def test_uniform_weight_ablation_runs(self, setup):
        query, space = setup
        result = EarlyTerminatedRobustPartitioning(
            query, space, epsilon=0.2, use_cost_weights=False
        ).run()
        assert len(result.solution) >= 1

    def test_max_calls_budget(self, setup):
        query, space = setup
        result = EarlyTerminatedRobustPartitioning(
            query, space, epsilon=0.0, max_calls=4
        ).run()
        # ε = 0 cannot finish in 4 calls on a multi-plan space, so the
        # budget must trip (a region check may add up to 2 calls).
        assert result.optimizer_calls <= 5
        assert result.budget_exhausted or result.terminated_early
