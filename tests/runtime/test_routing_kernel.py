"""The RLD classifier's decision kernel and its per-cell routing memo.

``route()`` must match the vectorized reference oracle at every grid
point, healthy, after each single-node crash and under overload; a
faulted simulation's reports are pinned by digest; and the memo holds
only cells batches actually visited.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from routing_oracle import oracle_decisions

from repro.core import Cluster, RLDConfig, RLDOptimizer
from repro.engine import FaultEvent, FaultSchedule, StreamSimulator
from repro.runtime.comparison import build_standard_strategies
from repro.runtime.rld_runtime import RLDStrategy
from repro.workloads import build_q1, stock_workload


@pytest.fixture(scope="module")
def small():
    """q1 with three uncertain selectivities and an uncertain rate: a
    1,715-point space with several supported plans, whose other two
    selectivities sit off-dimension at their defaults."""
    query = build_q1()
    uncertainty = {query.operators[i].selectivity_param: 3 for i in (1, 2, 3)}
    estimate = query.default_estimates(uncertainty | {"rate": 2})
    cluster = Cluster.homogeneous(4, 380.0)
    return RLDOptimizer(query, cluster, config=RLDConfig(epsilon=0.2)).solve(
        estimate
    )


def routed_everywhere(strategy: RLDStrategy, space) -> np.ndarray:
    """``route()``'s plan index at every grid point, in flat order."""
    plans = strategy.candidate_plans
    decisions = np.empty(space.n_points, dtype=np.intp)
    for flat, index in enumerate(space.grid_indices()):
        plan = strategy.route(0.0, space.point_at(index)).plan
        decisions[flat] = plans.index(plan)
    assert strategy.table_misses == 0
    return decisions


class TestKernelMatchesOracle:
    def test_space_is_small_with_several_plans(self, small):
        assert small.space.n_points == 1715
        assert len(small.supported_plans) > 2

    def test_healthy(self, small):
        strategy = RLDStrategy(small)
        expected = oracle_decisions(small)
        assert np.array_equal(routed_everywhere(strategy, small.space), expected)
        assert strategy.table_rebuilds == 1
        assert strategy.memo_size == small.space.n_points

    @pytest.mark.parametrize("node", range(4))
    def test_single_node_crash(self, small, node):
        strategy = RLDStrategy(small)
        strategy.on_fault(None, FaultEvent(time=1.0, kind="crash", node=node))
        expected = oracle_decisions(small, down=frozenset({node}))
        assert np.array_equal(routed_everywhere(strategy, small.space), expected)

    def test_some_crash_reroutes(self, small):
        healthy = oracle_decisions(small)
        assert any(
            (oracle_decisions(small, down=frozenset({node})) != healthy).any()
            for node in range(4)
        )

    def test_overload_mode(self, small):
        capacity = 0.5 * max(small.cluster.capacities)
        low = dataclasses.replace(small, cluster=Cluster.homogeneous(4, capacity))
        expected = oracle_decisions(low)
        # The low capacity must actually switch some cells to the
        # min-bottleneck plan, or this case would test nothing new.
        assert (expected != oracle_decisions(low, overload_threshold=np.inf)).any()
        routed = routed_everywhere(RLDStrategy(low), small.space)
        assert np.array_equal(routed, expected)


#: A short faulted run of the CLI-default q1 scenario: crashes, a
#: slowdown and a 1.3x rate pulse that leaves the grid, so RLD routes
#: by memo hits, misses and seven rebuilds.
FAULTS = (
    "crash@90:node=1:for=30,slowdown@200:node=2:factor=0.5:for=40,"
    "crash@330:node=3:for=20,crash@420:node=2:for=40"
)
DURATION = 600.0
SEED = 7

#: sha256 of each strategy's ``SimulationReport.to_dict()`` (sorted-key
#: JSON) under FAULTS, recorded before the routing kernel replaced the
#: dense routing table and the scalar live path.
PINNED_DIGESTS = {
    "ROD": "54d73e5ddaa8d6b5daadc6bb869f24e3a9fa37445f23c8ffbd32d576fd682f9e",
    "DYN": "f04f25a8d2286d9cf0fd5f23a304627b44ba508e322623cdaed9256661b2e4f7",
    "RLD": "71afe460a7f8b8c165595b0aab367ddef962973a57f2c365fae02e231f2d3961",
}


class VisitRecorder(RLDStrategy):
    """RLD that records every routing decision and the grid cells
    visited since the last liveness change."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cells_since_fault: set[int] = set()
        self.decisions = []

    def route(self, time, stats):
        flat = self._space.nearest_flat_index(stats)
        if flat is not None:
            self.cells_since_fault.add(flat)
        decision = super().route(time, stats)
        self.decisions.append((stats, decision))
        return decision

    def on_fault(self, simulator, event) -> None:
        down = self.down_nodes
        super().on_fault(simulator, event)
        if self.down_nodes != down:
            self.cells_since_fault.clear()


@pytest.fixture(scope="module")
def faulted_run():
    query = build_q1()
    estimate = query.default_estimates(
        {op.selectivity_param: 3 for op in query.operators} | {"rate": 2}
    )
    cluster = Cluster.homogeneous(4, 380.0)
    solution = RLDOptimizer(query, cluster, config=RLDConfig(epsilon=0.2)).solve(
        estimate
    )
    workload = stock_workload(query, uncertainty_level=3, regime_period=60.0)
    faults = FaultSchedule.parse(FAULTS, n_nodes=4, duration=DURATION, seed=SEED)
    strategies = build_standard_strategies(
        query, cluster, estimate=estimate, rld_solution=solution
    )
    strategies["RLD"] = VisitRecorder(solution)
    reports = {
        name: StreamSimulator(
            query, cluster, strategy, workload, batch_size=100.0, seed=SEED,
            faults=faults,
        ).run(DURATION)
        for name, strategy in strategies.items()
    }
    return reports, strategies["RLD"], solution


class TestFaultedRun:
    def test_report_digests_are_pinned(self, faulted_run):
        reports, _, _ = faulted_run
        digests = {
            name: hashlib.sha256(
                json.dumps(report.to_dict(), sort_keys=True).encode()
            ).hexdigest()
            for name, report in reports.items()
        }
        assert digests == PINNED_DIGESTS

    def test_run_exercises_hits_misses_and_rebuilds(self, faulted_run):
        _, rld, _ = faulted_run
        assert (rld.table_hits, rld.table_misses, rld.table_rebuilds) == (214, 414, 7)

    def test_memo_holds_only_visited_cells(self, faulted_run):
        _, rld, _ = faulted_run
        assert 0 < rld.memo_size <= len(rld.cells_since_fault)

    def test_overhead_is_the_routed_plan_cost_bit_for_bit(self, faulted_run):
        """Each batch is charged 2% of its expected service time, priced
        by ``PlanCostModel.plan_cost`` at the batch's exact statistics.
        Report sums absorb last-bit differences, so compare per batch."""
        _, rld, solution = faulted_run
        model = solution.logical.cost_model
        cluster = solution.cluster
        mean_capacity = cluster.total_capacity / cluster.n_nodes
        for stats, decision in rld.decisions:
            per_tuple_cost = model.plan_cost(decision.plan, stats) / stats["rate"]
            expected = 0.02 * (100.0 * per_tuple_cost / mean_capacity)
            assert decision.overhead_seconds == expected
