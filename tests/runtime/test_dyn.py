"""Tests for the DYN baseline strategy."""

from __future__ import annotations

import pytest

from repro.core import Cluster
from repro.engine import StreamSimulator
from repro.engine.faults import FaultError, FaultEvent, FaultSchedule, node_crash
from repro.query import Operator, Query, StreamSchema
from repro.runtime import DYNStrategy
from repro.workloads import ConstantRate, RegimeSwitchSelectivity, Workload


@pytest.fixture
def skewed_query() -> Query:
    """A query whose load concentrates on one heavy operator.

    The estimate claims op0 is light, but at runtime its true
    selectivity upstream shifts the load — creating the imbalance DYN
    is designed to chase.
    """
    ops = (
        Operator(0, "heavy", cost_per_tuple=4.0, selectivity=0.9),
        Operator(1, "mid", cost_per_tuple=1.5, selectivity=0.6),
        Operator(2, "light", cost_per_tuple=0.5, selectivity=0.5),
    )
    return Query("skewed", ops, (StreamSchema("S", base_rate=100.0),))


class TestDYN:
    def test_fixed_logical_plan(self, skewed_query):
        strategy = DYNStrategy(skewed_query, Cluster.homogeneous(2, 600.0))
        stats = skewed_query.estimate_point()
        assert strategy.route(0.0, stats).plan == strategy.logical_plan
        assert strategy.route(50.0, stats).plan == strategy.logical_plan

    def test_migrates_under_imbalance(self, skewed_query):
        cluster = Cluster.homogeneous(3, 450.0)
        strategy = DYNStrategy(
            skewed_query,
            cluster,
            imbalance_threshold=0.05,
            cooldown_seconds=5.0,
        )
        levels = {op.op_id: 3 for op in skewed_query.operators}
        workload = Workload(
            skewed_query,
            rate_profile=ConstantRate(1.6),
            selectivity_profile=RegimeSwitchSelectivity(levels, period=40.0),
        )
        sim = StreamSimulator(
            skewed_query, cluster, strategy, workload, seed=3, tick_period=5.0
        )
        report = sim.run(120.0)
        assert report.migrations > 0
        assert report.migration_stall_seconds > 0

    def test_cooldown_limits_migration_rate(self, skewed_query):
        cluster = Cluster.homogeneous(3, 450.0)
        strategy = DYNStrategy(
            skewed_query, cluster, imbalance_threshold=0.01, cooldown_seconds=30.0
        )
        workload = Workload(skewed_query, rate_profile=ConstantRate(1.6))
        sim = StreamSimulator(
            skewed_query, cluster, strategy, workload, seed=3, tick_period=5.0
        )
        report = sim.run(120.0)
        # With a 30s cooldown at most ~4 migrations fit into 120s.
        assert report.migrations <= 4

    def test_no_migration_when_balanced(self, three_op_query):
        cluster = Cluster.homogeneous(2, 2000.0)
        strategy = DYNStrategy(three_op_query, cluster, imbalance_threshold=0.5)
        workload = Workload(three_op_query, rate_profile=ConstantRate(0.2))
        sim = StreamSimulator(three_op_query, cluster, strategy, workload, seed=2)
        report = sim.run(60.0)
        assert report.migrations == 0

    def test_invalid_parameters(self, three_op_query):
        cluster = Cluster.homogeneous(2, 500.0)
        with pytest.raises(ValueError):
            DYNStrategy(three_op_query, cluster, imbalance_threshold=0.0)
        with pytest.raises(ValueError):
            DYNStrategy(three_op_query, cluster, cooldown_seconds=0.0)


class _StubNode:
    def __init__(self, node_id: int, online: bool) -> None:
        self.node_id = node_id
        self.online = online
        self.busy_seconds = 0.0


class _ExplodingSimulator:
    """Duck-typed simulator whose migrate() fails mid-evacuation."""

    def __init__(self) -> None:
        self.nodes = [_StubNode(0, online=False), _StubNode(1, online=True)]
        self.now = 12.0

    @property
    def current_placement(self) -> dict[int, int]:
        return {0: 0, 1: 1, 2: 1}

    def migrate(self, op_id: int, node_id: int) -> None:
        raise RuntimeError("migration rejected mid-flight")


class TestDYNFaultHook:
    def test_evacuation_failure_becomes_fault_error(self, skewed_query):
        """Regression: migrate() can raise RuntimeError/ValueError out of
        on_fault, past the engine's fault accounting.  The hook must
        convert to FaultError.  A real simulator's migrate() does not
        fail here, so a stub pins the wrapper that the fault-sequence
        test in ``tests/engine/test_isolation.py`` cannot reach."""
        strategy = DYNStrategy(skewed_query, Cluster.homogeneous(2, 600.0))
        event = FaultEvent(time=12.0, kind="crash", node=0)
        with pytest.raises(FaultError, match="evacuation of node 0"):
            strategy.on_fault(_ExplodingSimulator(), event)

    def test_crash_evacuation_still_works_end_to_end(self, skewed_query):
        cluster = Cluster.homogeneous(2, 600.0)
        strategy = DYNStrategy(skewed_query, cluster)
        workload = Workload(skewed_query, rate_profile=ConstantRate(1.0))
        faults = FaultSchedule(node_crash(20.0, 0, 20.0))
        sim = StreamSimulator(
            skewed_query, cluster, strategy, workload, seed=3, faults=faults
        )
        report = sim.run(80.0)
        assert report.fault_hook_errors == 0
        assert report.batches_completed > 0
        assert report.conservation_holds()
