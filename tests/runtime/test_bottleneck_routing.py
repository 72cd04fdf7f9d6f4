"""Tests for the classifier's overload-aware (bottleneck) routing."""

from __future__ import annotations

import pytest

from repro.core import Cluster, RLDConfig, RLDOptimizer
from repro.runtime import RLDStrategy


def utilizations(solution, plan, point):
    """Per-node utilization of ``plan`` at ``point``, by hand from the
    placement and the cost model."""
    placement = solution.physical.physical_plan
    capacities = solution.cluster.capacities
    node_loads = [0.0] * len(capacities)
    for op_id, load in solution.logical.cost_model.operator_loads(plan, point).items():
        node_loads[placement.node_of(op_id)] += load
    return [load / cap for load, cap in zip(node_loads, capacities)]


@pytest.fixture(scope="module")
def solution():
    from repro.workloads import build_q1

    query = build_q1()
    estimate = query.default_estimates(
        {op.selectivity_param: 3 for op in query.operators} | {"rate": 2}
    )
    cluster = Cluster.homogeneous(4, 380.0)
    return RLDOptimizer(query, cluster, config=RLDConfig(epsilon=0.2)).solve(estimate)


class TestBottleneckRouting:
    def test_normal_load_routes_by_cost(self, solution):
        strategy = RLDStrategy(solution)
        model = solution.logical.cost_model
        point = solution.query.estimate_point()
        decision = strategy.route(0.0, point)
        cheapest = min(
            strategy.candidate_plans,
            key=lambda p: (model.plan_cost(p, point), p.order),
        )
        assert decision.plan == cheapest

    def test_overload_routes_by_bottleneck(self, solution):
        strategy = RLDStrategy(solution, overload_threshold=0.95)
        # 10× the estimate rate: every plan saturates some node, so the
        # classifier must pick the min-bottleneck plan instead.
        point = solution.query.estimate_point().replacing(rate=1000.0)
        decision = strategy.route(0.0, point)
        bottlenecks = {
            plan: max(utilizations(solution, plan, point))
            for plan in strategy.candidate_plans
        }
        assert bottlenecks[decision.plan] == pytest.approx(
            min(bottlenecks.values())
        )

    def test_bottleneck_utilization_consistent_with_placement(self, solution):
        strategy = RLDStrategy(solution)
        point = solution.query.estimate_point()
        for plan in strategy.candidate_plans:
            # The hottest node by hand, lowest index on ties.
            utils = utilizations(solution, plan, point)
            expected = max(range(len(utils)), key=lambda i: (utils[i], -i))
            assert strategy.bottleneck_node(plan, point) == expected

    def test_threshold_inf_disables_bottleneck_mode(self, solution):
        always_cost = RLDStrategy(solution, overload_threshold=float("inf"))
        model = solution.logical.cost_model
        point = solution.query.estimate_point().replacing(rate=1000.0)
        decision = always_cost.route(0.0, point)
        cheapest = min(
            always_cost.candidate_plans,
            key=lambda p: (model.plan_cost(p, point), p.order),
        )
        assert decision.plan == cheapest

    def test_invalid_threshold(self, solution):
        with pytest.raises(ValueError, match="overload_threshold"):
            RLDStrategy(solution, overload_threshold=0.0)


class TestReportExport:
    def test_to_dict_round_trips_through_json(self, solution):
        import json

        from repro.engine import StreamSimulator
        from repro.workloads import stock_workload

        strategy = RLDStrategy(solution)
        workload = stock_workload(solution.query, uncertainty_level=3)
        report = StreamSimulator(
            solution.query, solution.cluster, strategy, workload, seed=3
        ).run(30.0)
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["batches_injected"] == report.batches_injected
        assert payload["avg_tuple_latency_ms"] == pytest.approx(
            report.avg_tuple_latency_ms
        )
        assert len(payload["node_utilization"]) == solution.cluster.n_nodes

    def test_to_dict_nan_becomes_none(self):
        from repro.engine import SimulationReport

        empty = SimulationReport(duration=10.0)
        payload = empty.to_dict()
        assert payload["avg_tuple_latency_ms"] is None
        assert payload["overhead_fraction"] is None
