"""Graceful degradation under node failure — the robustness claim, chaotic.

The paper argues RLD stays robust where DYN pays migration penalties
and ROD stalls; here the stressor is a *crashed node* rather than
statistics drift.  RLD's placement never changes, but its classifier
falls back to a surviving candidate plan — one whose bottleneck is not
the dead node — so the stalled queue at the dead operator stays short
and drains quickly after recovery.  ROD keeps shoving full-size batches
at the dead node and its latency degrades; DYN evacuates by force-
migrating, paying the pauses.
"""

from __future__ import annotations

import pytest
from routing_oracle import oracle_decisions

from repro.core import Cluster, RLDConfig, RLDOptimizer
from repro.engine import FaultEvent, FaultSchedule
from repro.engine.faults import node_crash
from repro.runtime.comparison import build_standard_strategies, compare_strategies
from repro.runtime.rld_runtime import RLDStrategy
from repro.workloads import build_q1, stock_workload

CRASH_AT = 40.0
OUTAGE = 30.0
DURATION = 150.0


@pytest.fixture(scope="module")
def compiled():
    """One q1 scenario with a compiled RLD solution (compile is the
    expensive step; share it across the module's tests)."""
    query = build_q1()
    estimate = query.default_estimates(
        {op.selectivity_param: 3 for op in query.operators} | {"rate": 2}
    )
    cluster = Cluster.homogeneous(4, 420.0)
    solution = RLDOptimizer(query, cluster, config=RLDConfig(epsilon=0.2)).solve(
        estimate
    )
    return query, estimate, cluster, solution


def run_comparison(compiled, faults):
    query, estimate, cluster, solution = compiled
    workload = stock_workload(query, uncertainty_level=3)
    strategies = build_standard_strategies(
        query, cluster, estimate=estimate, rld_solution=solution
    )
    return compare_strategies(
        query,
        cluster,
        workload,
        strategies,
        duration=DURATION,
        seed=29,
        faults=faults,
    )


class TestSurvivingPlanFallback:
    """Unit-level: the classifier's reroute decision itself."""

    def test_route_avoids_dead_bottleneck(self, compiled):
        query, estimate, cluster, solution = compiled
        strategy = RLDStrategy(solution)
        stats = estimate.point

        preferred = strategy.route(0.0, stats).plan
        bottleneck = strategy.bottleneck_node(preferred, stats)

        strategy.on_fault(None, FaultEvent(time=10.0, kind="crash", node=bottleneck))
        fallback = strategy.route(10.0, stats).plan

        assert fallback != preferred
        assert strategy.bottleneck_node(fallback, stats) != bottleneck
        assert fallback in strategy.candidate_plans  # still a robust plan

    def test_recovery_restores_preferred_routing(self, compiled):
        query, estimate, cluster, solution = compiled
        strategy = RLDStrategy(solution)
        stats = estimate.point
        preferred = strategy.route(0.0, stats).plan
        bottleneck = strategy.bottleneck_node(preferred, stats)

        strategy.on_fault(None, FaultEvent(time=10.0, kind="crash", node=bottleneck))
        strategy.on_fault(None, FaultEvent(time=40.0, kind="recover", node=bottleneck))
        assert strategy.down_nodes == frozenset()
        assert strategy.route(40.0, stats).plan == preferred


class TestRoutingTableUnderFaults:
    """The precomputed argmin routing table and its fault-path wiring:
    ``on_fault`` must invalidate the table so post-crash routes are
    re-derived against the surviving plan set, and recovery must
    rebuild it back to the healthy decisions."""

    def test_on_grid_routes_hit_the_table(self, compiled):
        query, estimate, cluster, solution = compiled
        strategy = RLDStrategy(solution)
        assert strategy.routing_table_enabled
        stats = estimate.point  # the estimate midpoint is a grid point

        plan = strategy.route(0.0, stats).plan
        assert strategy.table_hits == 1
        assert strategy.table_misses == 0
        assert strategy.table_rebuilds == 1
        # Repeat routes reuse the table without rebuilding.
        assert strategy.route(1.0, stats).plan == plan
        assert strategy.table_hits == 2
        assert strategy.table_rebuilds == 1

    def test_off_grid_stats_fall_back_to_live_evaluation(self, compiled):
        query, estimate, cluster, solution = compiled
        strategy = RLDStrategy(solution)
        stats = estimate.point
        hi = solution.space.full_region().pnt_hi
        rate_dim = next(d for d in solution.space.dimensions if d.name == "rate")
        off_grid = stats.replacing(rate=hi["rate"] + rate_dim.cell_width)

        strategy.route(0.0, off_grid)
        assert strategy.table_hits == 0
        assert strategy.table_misses == 1

    def test_crash_invalidates_and_rebuilds_the_table(self, compiled):
        query, estimate, cluster, solution = compiled
        strategy = RLDStrategy(solution)
        stats = estimate.point

        preferred = strategy.route(0.0, stats).plan
        assert strategy.table_rebuilds == 1
        bottleneck = strategy.bottleneck_node(preferred, stats)

        strategy.on_fault(None, FaultEvent(time=10.0, kind="crash", node=bottleneck))
        fallback = strategy.route(10.0, stats).plan
        # The post-crash decision came from a *rebuilt* table, not a
        # live-path miss, and avoids the dead bottleneck.
        assert strategy.table_rebuilds == 2
        assert strategy.table_misses == 0
        assert fallback != preferred
        assert strategy.bottleneck_node(fallback, stats) != bottleneck

        strategy.on_fault(None, FaultEvent(time=40.0, kind="recover", node=bottleneck))
        assert strategy.route(40.0, stats).plan == preferred
        assert strategy.table_rebuilds == 3

    def test_rebuilt_table_matches_live_decisions(self, compiled):
        """After a crash, memoized routes must agree with the vectorized
        reference oracle at every grid point sampled."""
        query, estimate, cluster, solution = compiled
        strategy = RLDStrategy(solution)
        stats = estimate.point
        bottleneck = strategy.bottleneck_node(strategy.route(0.0, stats).plan, stats)
        strategy.on_fault(None, FaultEvent(time=10.0, kind="crash", node=bottleneck))
        expected = oracle_decisions(solution, down=frozenset({bottleneck}))
        space = solution.space
        plans = strategy.candidate_plans
        for flat in range(0, space.n_points, max(1, space.n_points // 97)):
            point = space.point_at(space.index_of_flat(flat))
            assert strategy.route(10.0, point).plan == plans[expected[flat]]
        assert strategy.table_misses == 0


class TestDegradationHeadToHead:
    """System-level: the three strategies under the identical crash."""

    @pytest.fixture(scope="class")
    def crashed(self, compiled):
        query, estimate, cluster, solution = compiled
        strategy = RLDStrategy(solution)
        stats = estimate.point
        # Crash the node RLD's preferred plan bottlenecks on — the
        # worst possible single-node failure for RLD's fixed placement.
        bottleneck = strategy.bottleneck_node(strategy.route(0.0, stats).plan, stats)
        faults = FaultSchedule(node_crash(CRASH_AT, bottleneck, OUTAGE))
        return run_comparison(compiled, faults)

    @pytest.fixture(scope="class")
    def healthy(self, compiled):
        return run_comparison(compiled, None)

    def test_all_strategies_complete_the_chaos_run(self, crashed):
        for name in ("ROD", "DYN", "RLD"):
            report = crashed.reports[name]
            assert report.batches_completed > 0
            assert report.conservation_holds()
            assert report.node_downtime_seconds == pytest.approx(OUTAGE)

    def test_rod_latency_degrades_under_crash(self, healthy, crashed):
        assert (
            crashed.latency_ms("ROD") > 1.5 * healthy.latency_ms("ROD")
        ), "a crashed node should visibly hurt the frozen placement"

    def test_rld_reroutes_and_beats_rod(self, crashed):
        rld = crashed.reports["RLD"]
        rod = crashed.reports["ROD"]
        # RLD degraded gracefully: rerouted (no migration), lower
        # latency than the strategy with no failure response at all.
        assert rld.migrations == 0
        assert rld.plan_switches > 0
        assert rld.avg_tuple_latency_ms < rod.avg_tuple_latency_ms

    def test_dyn_reacts_with_forced_migrations(self, crashed):
        dyn = crashed.reports["DYN"]
        assert dyn.migrations > 0
        assert dyn.migration_stall_seconds > 0.0
        # Evacuation means DYN stops queueing on the dead node...
        assert dyn.batch_stalls == 0
        # ...at the price of losing the in-service work it abandoned.
        assert dyn.batches_dropped > 0

    def test_rod_stalls_on_the_dead_node(self, crashed):
        assert crashed.reports["ROD"].batch_stalls > 0
