"""Fault injection: per-kind unit tests and chaos property tests."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Cluster, PhysicalPlan
from repro.engine import (
    FaultEvent,
    FaultSchedule,
    NetworkModel,
    RoutingDecision,
    SimNode,
    StreamSimulator,
)
from repro.engine.faults import (
    FaultError,
    monitor_dropout,
    network_degradation,
    network_partition,
    node_crash,
    node_slowdown,
)
from repro.engine.trace import SimulationTrace
from repro.engine.monitor import StatisticsMonitor
from repro.query import LogicalPlan, Operator, Query, StreamSchema
from repro.workloads import ConstantRate, Workload


def build_three_op_query() -> Query:
    """Example 1's shape, built inline so hypothesis can reuse it."""
    operators = (
        Operator(op_id=0, name="op1", cost_per_tuple=3.0, selectivity=0.6),
        Operator(op_id=1, name="op2", cost_per_tuple=2.0, selectivity=0.5),
        Operator(op_id=2, name="op3", cost_per_tuple=1.0, selectivity=0.4),
    )
    return Query("stock3", operators, (StreamSchema("S", base_rate=100.0),))


class FixedPlanStrategy:
    """Minimal strategy: one plan, one placement, no adaptation."""

    name = "fixed"

    def __init__(self, plan: LogicalPlan, placement: PhysicalPlan):
        self._plan = plan
        self._placement = placement

    @property
    def placement(self) -> PhysicalPlan:
        return self._placement

    def route(self, time, stats) -> RoutingDecision:
        return RoutingDecision(plan=self._plan)

    def on_tick(self, simulator, time) -> None:
        pass


@pytest.fixture
def scenario(three_op_query):
    cluster = Cluster.homogeneous(2, 500.0)
    placement = PhysicalPlan((frozenset({0}), frozenset({1, 2})))
    plan = LogicalPlan((2, 1, 0))
    workload = Workload(three_op_query, rate_profile=ConstantRate(1.0))
    return three_op_query, cluster, placement, plan, workload


def simulate(scenario, *, faults=None, duration=60.0, seed=3, network=None):
    query, cluster, placement, plan, workload = scenario
    strategy = FixedPlanStrategy(plan, placement)
    sim = StreamSimulator(
        query, cluster, strategy, workload, seed=seed, faults=faults, network=network
    )
    report = sim.run(duration)
    return sim, report


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time=1.0, kind="meteor")

    def test_node_kinds_require_node(self):
        with pytest.raises(ValueError, match="requires a node"):
            FaultEvent(time=1.0, kind="crash")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            FaultEvent(time=-1.0, kind="partition")

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="fault time must be >= 0, got nan"):
            FaultEvent(time=float("nan"), kind="crash", node=0)

    def test_infinite_outage_is_permanent(self):
        schedule = FaultSchedule.parse(
            "crash@10:node=0:for=inf", n_nodes=1, duration=60.0
        )
        assert [(e.kind, e.time) for e in schedule] == [
            ("crash", 10.0),
            ("recover", float("inf")),
        ]

    @pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan])
    def test_non_finite_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="factor must be finite"):
            FaultEvent(time=1.0, kind="slowdown", node=0, factor=factor)
        with pytest.raises(ValueError, match="factor must be finite"):
            FaultEvent(time=1.0, kind="degrade", factor=factor)

    def test_paired_builders_expand(self):
        crash, recover = node_crash(10.0, 1, 5.0)
        assert (crash.kind, recover.kind) == ("crash", "recover")
        assert recover.time == pytest.approx(15.0)
        slow, restore = node_slowdown(5.0, 0, 0.5, 10.0)
        assert restore.factor == 1.0
        assert {e.kind for e in network_partition(1.0, 2.0)} == {"partition", "heal"}
        assert {e.kind for e in monitor_dropout(1.0, 2.0)} == {
            "monitor_dropout",
            "monitor_restore",
        }
        degrade, heal = network_degradation(1.0, 4.0, 2.0)
        assert degrade.factor == 4.0 and heal.factor == 1.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda t: node_crash(t, 0, 5.0),
            lambda t: node_slowdown(t, 0, 0.5, 5.0),
            lambda t: network_degradation(t, 4.0, 5.0),
            lambda t: network_partition(t, 5.0),
            lambda t: monitor_dropout(t, 5.0),
        ],
    )
    def test_fault_pairs_reject_infinite_start(self, build):
        with pytest.raises(ValueError, match="fault time must be finite, got inf"):
            build(math.inf)

    @pytest.mark.parametrize(
        "spec", ["crash@inf:node=0", "crash@inf:node=0:for=5", "partition@inf:for=5"]
    )
    def test_parse_rejects_infinite_start(self, spec):
        with pytest.raises(ValueError, match="fault time must be finite, got inf"):
            FaultSchedule.parse(spec, n_nodes=1, duration=60.0)

    def test_event_still_accepts_infinite_time(self):
        # A for=inf outage builds its reversal at inf (see above).
        assert FaultEvent(time=math.inf, kind="heal").time == math.inf


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule(
            [
                FaultEvent(time=30.0, kind="heal"),
                FaultEvent(time=10.0, kind="partition"),
            ]
        )
        assert [e.time for e in schedule] == [10.0, 30.0]

    def test_validate_for_rejects_out_of_range_node(self):
        schedule = FaultSchedule(node_crash(1.0, 5, 1.0))
        with pytest.raises(ValueError, match="node 5"):
            schedule.validate_for(n_nodes=2)

    def test_random_is_deterministic_per_seed(self):
        a = FaultSchedule.random(4, 100.0, 7, crashes=2, partitions=1)
        b = FaultSchedule.random(4, 100.0, 7, crashes=2, partitions=1)
        c = FaultSchedule.random(4, 100.0, 8, crashes=2, partitions=1)
        assert a == b
        assert a != c

    @pytest.mark.parametrize(
        "counter", ["crashes", "slowdowns", "partitions", "dropouts", "degradations"]
    )
    def test_random_rejects_negative_counts(self, counter):
        with pytest.raises(ValueError, match=f"{counter} must be >= 0, got -1"):
            FaultSchedule.random(4, 100.0, 7, **{counter: -1})
        with pytest.raises(ValueError, match=f"{counter} must be >= 0"):
            FaultSchedule.parse(f"random:{counter}=-1", n_nodes=4, duration=100.0)

    def test_parse_explicit_entries(self):
        schedule = FaultSchedule.parse(
            "crash@60:node=1:for=30,partition@120:for=10,"
            "slowdown@40:node=0:factor=0.5:for=60,dropout@20:for=100",
            n_nodes=2,
            duration=300.0,
        )
        kinds = [e.kind for e in schedule]
        assert kinds == [
            "monitor_dropout",
            "slowdown",
            "crash",
            "recover",
            "slowdown",
            "partition",
            "monitor_restore",
            "heal",
        ]

    def test_parse_random_spec(self):
        schedule = FaultSchedule.parse(
            "random:crashes=2:dropouts=0:slowdowns=0", n_nodes=3, duration=100.0, seed=5
        )
        assert sorted(e.kind for e in schedule) == ["crash", "crash", "recover", "recover"]
        assert schedule == FaultSchedule.random(
            3, 100.0, 5, crashes=2, dropouts=0, slowdowns=0
        )

    def test_parse_random_spec_accepts_fraction_keys(self):
        schedule = FaultSchedule.parse(
            "random:crashes=1:slowdowns=0:dropouts=0:min_outage_fraction=0.1",
            n_nodes=3,
            duration=100.0,
            seed=5,
        )
        crash = schedule.events[0]
        recover = schedule.events[1]
        assert recover.time - crash.time >= 10.0  # 0.1 of the 100 s run

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultSchedule.parse("explode", n_nodes=2, duration=10.0)
        with pytest.raises(ValueError, match="unknown fault options"):
            FaultSchedule.parse("crash@1:node=0:frob=2", n_nodes=2, duration=10.0)
        with pytest.raises(ValueError, match="requires node"):
            FaultSchedule.parse("crash@1:for=2", n_nodes=2, duration=10.0)
        for node in ("inf", "nan", "1.7", "-1"):
            with pytest.raises(ValueError, match="node must be a non-negative integer"):
                FaultSchedule.parse(
                    f"crash@10:node={node}:for=5", n_nodes=4, duration=60.0
                )
        for spec in ("degrade@10:factor=inf:for=5",
                     "slowdown@10:node=0:factor=inf:for=30"):
            with pytest.raises(ValueError, match="factor must be finite"):
                FaultSchedule.parse(spec, n_nodes=2, duration=60.0)
        with pytest.raises(ValueError, match="unknown random-spec key"):
            FaultSchedule.parse("random:bogus=1", n_nodes=2, duration=10.0)
        with pytest.raises(ValueError, match="bad random-spec value"):
            FaultSchedule.parse("random:crashes=banana", n_nodes=2, duration=10.0)


class TestNodeFaultStates:
    def test_fail_wipes_backlog_and_refuses_work(self):
        node = SimNode(0, 100.0)
        node.submit(0.0, 500.0)  # 5 seconds of queued service
        node.fail(1.0)
        assert not node.online
        assert node.available_at == 1.0
        assert node.crash_epoch == 1
        with pytest.raises(RuntimeError, match="offline"):
            node.submit(1.5, 10.0)

    def test_recover_restores_service(self):
        node = SimNode(0, 100.0)
        node.fail(1.0)
        node.recover(4.0)
        assert node.online
        done, _ = node.submit(2.0, 100.0)
        assert done == pytest.approx(5.0)  # starts at recovery, not arrival

    def test_slowdown_scales_service(self):
        node = SimNode(0, 100.0)
        assert node.service_seconds(100.0) == pytest.approx(1.0)
        node.set_speed(0.5)
        assert node.effective_capacity == pytest.approx(50.0)
        assert node.service_seconds(100.0) == pytest.approx(2.0)
        node.set_speed(1.0)
        assert node.service_seconds(100.0) == pytest.approx(1.0)


class TestCrashRecover:
    def test_crash_stalls_drops_and_recovers(self, three_op_query):
        # Node 0 (hosting the final operator) runs near saturation so
        # the crash is guaranteed to catch work in service.
        cluster = Cluster((65.0, 500.0))
        placement = PhysicalPlan((frozenset({0}), frozenset({1, 2})))
        plan = LogicalPlan((2, 1, 0))
        workload = Workload(three_op_query, rate_profile=ConstantRate(1.0))
        scenario = (three_op_query, cluster, placement, plan, workload)
        faults = FaultSchedule(node_crash(20.0, 0, 15.0))
        sim, report = simulate(scenario, faults=faults)
        # Work destined for node 0 parked while it was down...
        assert report.batch_stalls > 0
        # ...in-service batches died with the queue...
        assert report.batches_dropped > 0
        # ...and the outage is accounted exactly.
        assert report.node_downtime_seconds == pytest.approx(15.0)
        assert report.node_crashes == 1
        # After recovery the system keeps completing work.
        assert report.batches_completed > 0
        assert report.conservation_holds()

    def test_unrecovered_crash_counts_downtime_to_horizon(self, scenario):
        faults = FaultSchedule([FaultEvent(time=40.0, kind="crash", node=0)])
        sim, report = simulate(scenario, faults=faults, duration=60.0)
        assert report.node_downtime_seconds == pytest.approx(20.0)
        # Stalled batches are in flight, not lost from the ledger.
        assert report.batches_in_flight == sim.active_batches
        assert report.conservation_holds()

    def test_crash_of_unused_node_is_harmless(self, scenario):
        query, cluster, placement, plan, workload = scenario
        # Place everything on node 0 and crash node 1.
        placement = PhysicalPlan((frozenset({0, 1, 2}), frozenset()))
        faults = FaultSchedule(node_crash(20.0, 1, 10.0))
        baseline = simulate(
            (query, cluster, placement, plan, workload), faults=None
        )[1]
        faulty = simulate(
            (query, cluster, placement, plan, workload), faults=faults
        )[1]
        assert faulty.batches_dropped == 0
        assert faulty.batches_completed == baseline.batches_completed
        assert faulty.avg_tuple_latency_ms == pytest.approx(
            baseline.avg_tuple_latency_ms
        )


class TestSlowdown:
    def test_slowdown_inflates_latency(self, scenario):
        healthy = simulate(scenario)[1]
        faults = FaultSchedule(node_slowdown(10.0, 1, 0.25, 40.0))
        throttled = simulate(scenario, faults=faults)[1]
        assert (
            throttled.avg_tuple_latency_ms > healthy.avg_tuple_latency_ms
        )
        # Slowdowns degrade but never drop work.
        assert throttled.batches_dropped == 0
        assert throttled.conservation_holds()


class TestPartition:
    def test_partition_drops_cross_node_hops(self, scenario):
        faults = FaultSchedule(network_partition(20.0, 10.0))
        sim, report = simulate(scenario, faults=faults)
        assert report.batches_dropped > 0
        assert report.partition_seconds == pytest.approx(10.0)
        assert report.conservation_holds()
        # Tuples lost are tracked alongside the batch count.
        assert report.tuples_dropped > 0

    def test_single_node_pipeline_survives_partition(self, three_op_query):
        cluster = Cluster.homogeneous(1, 800.0)
        placement = PhysicalPlan((frozenset({0, 1, 2}),))
        plan = LogicalPlan((2, 1, 0))
        workload = Workload(three_op_query, rate_profile=ConstantRate(1.0))
        faults = FaultSchedule(network_partition(10.0, 30.0))
        sim, report = simulate(
            (three_op_query, cluster, placement, plan, workload), faults=faults
        )
        assert report.batches_dropped == 0  # no hop ever crosses nodes


class TestNetworkDegradation:
    def test_degrade_charges_more_network_time(self, scenario):
        network = NetworkModel()
        healthy = simulate(scenario, network=network)[1]
        faults = FaultSchedule(network_degradation(5.0, 50.0, 50.0))
        degraded = simulate(scenario, faults=faults, network=network)[1]
        assert degraded.network_seconds > healthy.network_seconds

    def test_degrade_without_model_attaches_default(self, scenario):
        faults = FaultSchedule(network_degradation(5.0, 10.0, 20.0))
        sim, report = simulate(scenario, faults=faults)
        assert report.network_seconds > 0.0


class TestMonitorDropout:
    def test_suspended_monitor_freezes_estimates(self, three_op_query):
        workload = Workload(three_op_query, rate_profile=ConstantRate(1.0))
        monitor = StatisticsMonitor(three_op_query, workload, seed=5)
        monitor.sample(0.0)
        frozen = dict(monitor.current())
        monitor.suspend()
        monitor.sample(1.0)
        monitor.sample(2.0)
        assert monitor.samples_dropped == 2
        assert dict(monitor.current()) == frozen
        monitor.resume()
        monitor.sample(3.0)
        assert monitor.samples_taken == 2

    def test_dropout_fault_reaches_report(self, scenario):
        faults = FaultSchedule(monitor_dropout(10.0, 30.0))
        sim, report = simulate(scenario, faults=faults)
        assert report.monitor_samples_dropped >= 29
        assert report.fault_events == 2


class TestReportFailureMetrics:
    def test_fault_free_run_has_clean_ledger(self, scenario):
        sim, report = simulate(scenario)
        assert report.batches_dropped == 0
        assert report.node_downtime_seconds == 0.0
        assert report.drop_fraction == 0.0
        assert report.availability == pytest.approx(1.0)
        assert report.conservation_holds()

    def test_availability_reflects_downtime(self, scenario):
        faults = FaultSchedule(node_crash(10.0, 0, 30.0))
        sim, report = simulate(scenario, faults=faults, duration=60.0)
        # 30s of one node down out of 2 nodes x 60s.
        assert report.availability == pytest.approx(1.0 - 30.0 / 120.0)
        summary = report.to_dict()
        assert summary["batches_dropped"] == report.batches_dropped
        assert summary["availability"] == pytest.approx(report.availability)


class FailingHookStrategy(FixedPlanStrategy):
    """Strategy whose on_fault always fails the sanctioned way."""

    name = "failing-hook"

    def on_fault(self, simulator, event) -> None:
        raise FaultError(f"cannot degrade for {event.kind}")


class RudeHookStrategy(FixedPlanStrategy):
    """Strategy whose on_fault raises an unsanctioned exception."""

    name = "rude-hook"

    def on_fault(self, simulator, event) -> None:
        raise RuntimeError("hook bug")


class TestFaultHookErrors:
    """Regression: the run and its accounting survive a failing hook.

    ``on_fault`` hooks may raise :class:`FaultError` (and only that);
    the simulator counts each in ``report.fault_hook_errors`` and keeps
    going — the fault it injected must still be measured.  That every
    shipped strategy keeps to this is checked under arbitrary fault
    sequences in ``tests/engine/test_isolation.py``.
    """

    def _run(self, scenario, strategy_cls, *, trace=None):
        query, cluster, placement, plan, workload = scenario
        strategy = strategy_cls(plan, placement)
        faults = FaultSchedule(node_crash(20.0, 0, 15.0))
        sim = StreamSimulator(
            query, cluster, strategy, workload, seed=3, faults=faults, trace=trace
        )
        return sim.run(60.0)

    def test_fault_error_is_counted_and_run_survives(self, scenario):
        trace = SimulationTrace()
        report = self._run(scenario, FailingHookStrategy, trace=trace)
        # The hook failed on both events (crash + recover)...
        assert report.fault_hook_errors == report.fault_events == 2
        # ...but the run finished and the ledger still balances.
        assert report.batches_completed > 0
        assert report.conservation_holds()
        assert report.to_dict()["fault_hook_errors"] == 2
        details = [e.detail for e in trace.filter(kind="fault_hook_error")]
        assert len(details) == 2
        assert "cannot degrade" in details[0]

    def test_clean_hook_leaves_counter_at_zero(self, scenario):
        report = self._run(scenario, FixedPlanStrategy)
        assert report.fault_hook_errors == 0

    def test_unsanctioned_exception_propagates(self, scenario):
        with pytest.raises(RuntimeError, match="hook bug"):
            self._run(scenario, RudeHookStrategy)


# ----------------------------------------------------------------------
# Chaos property tests: any seeded schedule, same invariants
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    fault_seed=st.integers(0, 10_000),
    crashes=st.integers(0, 2),
    slowdowns=st.integers(0, 2),
    partitions=st.integers(0, 1),
    dropouts=st.integers(0, 1),
)
def test_chaos_never_breaks_invariants(
    seed, fault_seed, crashes, slowdowns, partitions, dropouts
):
    """Under any random fault schedule the simulator terminates, batch
    accounting conserves (arrived = completed + dropped + in flight),
    and no latency is ever negative."""
    duration = 40.0
    query = build_three_op_query()
    cluster = Cluster.homogeneous(2, 500.0)
    placement = PhysicalPlan((frozenset({0}), frozenset({1, 2})))
    plan = LogicalPlan((2, 1, 0))
    workload = Workload(query, rate_profile=ConstantRate(1.0))
    faults = FaultSchedule.random(
        2,
        duration,
        fault_seed,
        crashes=crashes,
        slowdowns=slowdowns,
        partitions=partitions,
        dropouts=dropouts,
    )
    sim = StreamSimulator(
        query,
        cluster,
        FixedPlanStrategy(plan, placement),
        workload,
        seed=seed,
        faults=faults,
    )
    report = sim.run(duration)  # terminating at all = no deadlock

    assert report.conservation_holds()
    assert report.batches_in_flight == sim.active_batches
    assert 0 <= report.batches_dropped <= report.batches_injected
    assert report.tuples_dropped >= 0.0
    assert 0.0 <= report.node_downtime_seconds <= 2 * duration + 1e-9
    assert 0.0 <= report.partition_seconds <= duration + 1e-9
    if report.batches_completed:
        assert report.latency_percentile_ms(0) >= 0.0
        assert report.avg_tuple_latency_ms >= 0.0
    else:
        assert math.isnan(report.avg_tuple_latency_ms)
