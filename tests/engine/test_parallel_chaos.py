"""Chaos regression for parallel-compiled solutions.

PR 1's fault-injection subsystem proves RLD degrades gracefully; this
module proves a solution compiled with ``--jobs 4`` is *the same
artifact* at runtime: it routes identically, rebuilds its degraded-mode
routing table identically, and produces a bit-for-bit identical
simulation report under the identical fault schedule.  Any divergence
here means the parallel compile path broke determinism in a way the
compile-time parity suite did not observe.
"""

from __future__ import annotations

import pytest

from repro.core import Cluster, RLDConfig, RLDOptimizer
from repro.engine import FaultEvent, FaultSchedule
from repro.engine.faults import node_crash
from repro.runtime.comparison import compare_strategies
from repro.runtime.rld_runtime import RLDStrategy
from repro.workloads import build_q1, stock_workload

CRASH_AT = 40.0
OUTAGE = 30.0
DURATION = 150.0

#: The SimulationReport fields that must match exactly between the
#: serial- and parallel-compiled runs (everything deterministic; the
#: per-node busy ledger is compared separately as a sequence).
_REPORT_FIELDS = (
    "batches_injected",
    "batches_completed",
    "tuples_in",
    "tuples_out",
    "overhead_seconds",
    "network_seconds",
    "migrations",
    "migration_stall_seconds",
    "plan_switches",
    "processing_seconds",
    "batches_dropped",
    "tuples_dropped",
    "batches_in_flight",
    "batch_stalls",
    "fault_events",
    "node_crashes",
    "node_downtime_seconds",
)


@pytest.fixture(scope="module")
def compiled_pair():
    """The same q1 scenario compiled serially and with four workers."""
    query = build_q1()
    estimate = query.default_estimates(
        {op.selectivity_param: 3 for op in query.operators} | {"rate": 2}
    )
    cluster = Cluster.homogeneous(4, 420.0)
    serial = RLDOptimizer(
        query, cluster, config=RLDConfig(epsilon=0.2)
    ).solve(estimate)
    parallel = RLDOptimizer(
        query,
        cluster,
        config=RLDConfig(epsilon=0.2, jobs=4),
    ).solve(estimate)
    return query, estimate, cluster, serial, parallel


def _run_rld(query, cluster, solution, faults):
    workload = stock_workload(query, uncertainty_level=3)
    return compare_strategies(
        query,
        cluster,
        workload,
        {"RLD": RLDStrategy(solution)},
        duration=DURATION,
        seed=29,
        faults=faults,
    ).reports["RLD"]


class TestParallelSolutionIsTheSameArtifact:
    def test_compiled_solutions_agree(self, compiled_pair):
        _, _, _, serial, parallel = compiled_pair
        assert parallel.logical.plans == serial.logical.plans
        table_s, table_p = serial.load_table, parallel.load_table
        assert [
            table_p.weight_of(plan) for plan in table_p.plans
        ] == [table_s.weight_of(plan) for plan in table_s.plans]
        assert parallel.physical.physical_plan == serial.physical.physical_plan
        assert parallel.physical.score == serial.physical.score

    def test_crash_rerouting_is_identical(self, compiled_pair):
        query, estimate, cluster, serial, parallel = compiled_pair
        s_strat = RLDStrategy(serial)
        p_strat = RLDStrategy(parallel)
        stats = estimate.point

        preferred = s_strat.route(0.0, stats).plan
        assert p_strat.route(0.0, stats).plan == preferred
        bottleneck = s_strat.bottleneck_node(preferred, stats)
        assert p_strat.bottleneck_node(preferred, stats) == bottleneck

        crash = FaultEvent(time=10.0, kind="crash", node=bottleneck)
        for strat in (s_strat, p_strat):
            strat.on_fault(None, crash)
        assert p_strat.route(10.0, stats).plan == s_strat.route(10.0, stats).plan
        assert p_strat.table_rebuilds == s_strat.table_rebuilds

    def test_degraded_routing_table_matches_across_the_grid(
        self, compiled_pair
    ):
        query, estimate, cluster, serial, parallel = compiled_pair
        s_strat = RLDStrategy(serial)
        p_strat = RLDStrategy(parallel)
        stats = estimate.point
        bottleneck = s_strat.bottleneck_node(
            s_strat.route(0.0, stats).plan, stats
        )
        crash = FaultEvent(time=10.0, kind="crash", node=bottleneck)
        s_strat.on_fault(None, crash)
        p_strat.on_fault(None, crash)
        space = serial.space
        step = max(1, space.n_points // 97)
        for flat in range(0, space.n_points, step):
            point = space.point_at(space.index_of_flat(flat))
            assert (
                p_strat.route(10.0, point).plan
                == s_strat.route(10.0, point).plan
            )


class TestChaosRunRegression:
    @pytest.fixture(scope="class")
    def reports(self, compiled_pair):
        query, estimate, cluster, serial, parallel = compiled_pair
        strategy = RLDStrategy(serial)
        stats = estimate.point
        bottleneck = strategy.bottleneck_node(
            strategy.route(0.0, stats).plan, stats
        )
        faults = FaultSchedule(node_crash(CRASH_AT, bottleneck, OUTAGE))
        return (
            _run_rld(query, cluster, serial, faults),
            _run_rld(query, cluster, parallel, faults),
        )

    def test_chaos_reports_are_identical(self, reports):
        serial_report, parallel_report = reports
        for name in _REPORT_FIELDS:
            assert getattr(parallel_report, name) == getattr(
                serial_report, name
            ), name
        assert (
            parallel_report.node_busy_seconds
            == serial_report.node_busy_seconds
        )
        assert parallel_report.avg_tuple_latency_ms == pytest.approx(
            serial_report.avg_tuple_latency_ms, rel=0, abs=0
        )

    def test_chaos_run_still_degrades_gracefully(self, reports):
        _, parallel_report = reports
        assert parallel_report.batches_completed > 0
        assert parallel_report.conservation_holds()
        assert parallel_report.migrations == 0
        assert parallel_report.plan_switches > 0
        assert parallel_report.node_downtime_seconds == pytest.approx(OUTAGE)
