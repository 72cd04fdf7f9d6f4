"""Tests for the RLD runtime strategy (classifier + fixed placement)."""

from __future__ import annotations

import pytest

from repro.core import Cluster, RLDConfig, RLDOptimizer
from repro.core.physical import InfeasiblePlacementError
from repro.engine import StreamSimulator
from repro.runtime import RLDStrategy
from repro.workloads import RegimeSwitchSelectivity, Workload, build_q1


@pytest.fixture
def solution(four_op_query):
    estimate = four_op_query.default_estimates({"sel:1": 1, "sel:2": 3, "rate": 2})
    cluster = Cluster.homogeneous(3, 400.0)
    return RLDOptimizer(
        four_op_query, cluster, config=RLDConfig(epsilon=0.1)
    ).solve(estimate)


class TestRLDStrategy:
    def test_routes_cheapest_supported_plan(self, solution):
        strategy = RLDStrategy(solution)
        model = solution.logical.cost_model
        point = solution.space.full_region().pnt_hi
        decision = strategy.route(0.0, point)
        best = min(
            model.plan_cost(p, point) for p in strategy.candidate_plans
        )
        assert model.plan_cost(decision.plan, point) == pytest.approx(best)

    def test_classification_overhead_charged(self, solution):
        strategy = RLDStrategy(solution, classify_overhead_fraction=0.02)
        point = solution.query.estimate_point()
        decision = strategy.route(0.0, point)
        assert decision.overhead_seconds > 0

    def test_overhead_prices_at_the_driving_rate_when_stats_omit_it(self):
        """Statistics without a rate are priced at the driving rate, so
        the overhead's per-tuple cost must divide by that same rate."""
        query = build_q1()
        estimate = query.default_estimates(
            {op.selectivity_param: 3 for op in query.operators}
        )
        cluster = Cluster.homogeneous(4, 380.0)
        solution = RLDOptimizer(query, cluster, config=RLDConfig(epsilon=0.2)).solve(
            estimate
        )
        space = solution.space
        assert "rate" not in space.names
        point = space.point_at(tuple(steps // 2 for steps in space.shape))
        decision = RLDStrategy(solution).route(0.0, point)
        cost = solution.logical.cost_model.plan_cost(decision.plan, point)
        per_tuple_cost = cost / query.driving_rate
        mean_capacity = cluster.total_capacity / cluster.n_nodes
        expected = 0.02 * (100.0 * per_tuple_cost / mean_capacity)
        assert decision.overhead_seconds == expected
        assert decision.overhead_seconds < 0.1

    def test_zero_overhead_mode(self, solution):
        strategy = RLDStrategy(solution, classify_overhead_fraction=0.0)
        point = solution.query.estimate_point()
        assert strategy.route(0.0, point).overhead_seconds == 0.0

    def test_placement_matches_solution(self, solution):
        strategy = RLDStrategy(solution)
        assert strategy.placement == solution.physical.physical_plan

    def test_infeasible_solution_rejected(self, four_op_query):
        estimate = four_op_query.default_estimates({"sel:1": 1, "sel:2": 3})
        tiny_cluster = Cluster.homogeneous(1, 1.0)
        infeasible = RLDOptimizer(four_op_query, tiny_cluster).solve(estimate)
        assert not infeasible.feasible
        with pytest.raises(InfeasiblePlacementError):
            RLDStrategy(infeasible)

    def test_never_migrates_but_switches_plans(self, solution):
        query = solution.query
        strategy = RLDStrategy(solution)
        levels = {op.op_id: 3 for op in query.operators}
        workload = Workload(
            query,
            selectivity_profile=RegimeSwitchSelectivity(
                levels, period=30.0, mode="square"
            ),
        )
        sim = StreamSimulator(query, solution.cluster, strategy, workload, seed=6)
        report = sim.run(120.0)
        assert report.migrations == 0
        if len(strategy.candidate_plans) > 1:
            assert report.plan_switches > 0

    def test_measured_overhead_close_to_two_percent(self, solution):
        query = solution.query
        strategy = RLDStrategy(solution, classify_overhead_fraction=0.02)
        workload = Workload(query)
        sim = StreamSimulator(query, solution.cluster, strategy, workload, seed=6)
        report = sim.run(60.0)
        assert report.overhead_fraction == pytest.approx(0.02, abs=0.01)

    def test_invalid_fraction(self, solution):
        with pytest.raises(ValueError):
            RLDStrategy(solution, classify_overhead_fraction=1.5)
