"""The distributed stream processing simulator.

Wires sources, nodes, the monitor, and a load-distribution strategy
into one discrete-event run:

* A Poisson source emits tuple batches at the workload's (time-varying)
  rate; each batch is routed to a logical plan by the strategy — for
  RLD that is the online classifier, for ROD/DYN the single compiled
  plan.
* Each plan stage is a job on the node hosting that operator under the
  *current* placement; nodes are single-server FIFO queues, so overload
  shows up as queueing latency exactly as in a real engine.
* Strategies get a periodic tick and may call :meth:`StreamSimulator.
  migrate` (the DYN baseline does); migration suspends the moved
  operator for a state-proportional pause.
* An optional :class:`~repro.engine.faults.FaultSchedule` injects
  infrastructure failures mid-run: node crashes (queued work lost, new
  stages stall until recovery or migration), slowdowns, network
  degradation and partitions, and monitor dropouts.  Strategies with an
  ``on_fault(simulator, event)`` method are notified after each event
  and may degrade gracefully (RLD reroutes, DYN force-migrates).

Everything observable — batch latencies, produced-tuple timeline,
overheads, migrations, and the failure ledger — lands in a
:class:`SimulationReport`.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Protocol

import numpy as np

from repro.core.physical import Cluster, PhysicalPlan
from repro.engine.batches import Batch
from repro.engine.events import EventLoop
from repro.engine.faults import FaultError, FaultEvent, FaultSchedule
from repro.engine.metrics import SimulationReport
from repro.engine.monitor import GroundTruth, StatisticsMonitor
from repro.engine.network import NetworkModel
from repro.engine.node import SimNode
from repro.engine.trace import SimulationTrace, TraceEvent
from repro.query.model import Query
from repro.query.plans import LogicalPlan
from repro.query.statistics import StatPoint
from repro.util.rng import derive_rng
from repro.util.validation import ensure_positive

__all__ = ["RoutingDecision", "LoadDistributionStrategy", "StreamSimulator"]

#: Unit-mean exponential arrival gaps drawn per refill.  The stream is
#: the one scalar ``exponential(mean_gap)`` draws would give: NumPy
#: draws those as ``mean_gap · standard_exponential()``.
ARRIVAL_CHUNK = 4096


class RoutingDecision(NamedTuple):
    """A strategy's per-batch answer: the plan plus routing overhead."""

    plan: LogicalPlan
    overhead_seconds: float = 0.0


class LoadDistributionStrategy(Protocol):
    """What the simulator needs from RLD / ROD / DYN (see repro.runtime).

    Strategies *may* additionally define ``on_fault(simulator, event)``;
    when present, the simulator calls it after applying each injected
    :class:`~repro.engine.faults.FaultEvent` so the strategy can react
    (RLD reroutes around dead bottlenecks, DYN force-migrates off
    crashed nodes).  Strategies without the hook — like ROD — simply
    suffer the failure.
    """

    name: str

    @property
    def placement(self) -> PhysicalPlan:
        """Initial operator→node assignment."""
        ...

    def route(self, time: float, stats: StatPoint) -> RoutingDecision:
        """Pick the logical plan for a batch arriving at ``time``."""
        ...

    def on_tick(self, simulator: "StreamSimulator", time: float) -> None:
        """Periodic hook (DYN uses it to rebalance via migration)."""
        ...


class StreamSimulator:
    """One simulated run of a query under a load-distribution strategy.

    Parameters
    ----------
    query, cluster:
        The workload's query and the machines executing it.
    strategy:
        RLD / ROD / DYN (anything satisfying the strategy protocol).
    workload:
        Ground-truth statistics source: ``rate(t)`` and
        ``selectivity(op_id, t)``.
    batch_size:
        Tuples per ruster (Table 2: 100).
    monitor:
        Statistics monitor; defaults to a lightly noisy one.
    monitor_period / tick_period:
        Sampling and strategy-tick intervals in seconds.
    migration_seconds_per_state:
        Pause per unit of operator state when migrating (further
        scaled by the current rate relative to the estimate).
    seed:
        Reproducibility of arrivals and monitor noise.
    network:
        Optional :class:`~repro.engine.network.NetworkModel`; when set,
        a batch moving between operators on *different* nodes is
        delayed by the model's transfer time (default: free network,
        the paper's §2.1 assumption).
    trace:
        Optional :class:`~repro.engine.trace.SimulationTrace` capturing
        a per-event audit trail (arrivals, stages, completions,
        migrations, faults); leave ``None`` for long runs.
    faults:
        Optional :class:`~repro.engine.faults.FaultSchedule` of timed
        infrastructure failures replayed during the run.  If the
        schedule contains network-degradation events and no ``network``
        was given, a default :class:`NetworkModel` is attached so the
        degradation has a link to degrade.
    """

    def __init__(
        self,
        query: Query,
        cluster: Cluster,
        strategy: LoadDistributionStrategy,
        workload: GroundTruth,
        *,
        batch_size: float = 100.0,
        monitor: StatisticsMonitor | None = None,
        monitor_period: float = 1.0,
        tick_period: float = 5.0,
        migration_seconds_per_state: float = 1.0,
        network: NetworkModel | None = None,
        seed: int | np.random.Generator | None = 17,
        trace: SimulationTrace | None = None,
        faults: FaultSchedule | None = None,
    ) -> None:
        ensure_positive(batch_size, "batch_size")
        ensure_positive(monitor_period, "monitor_period")
        ensure_positive(tick_period, "tick_period")
        if faults is not None:
            faults.validate_for(cluster.n_nodes)
            if network is None and faults.needs_network:
                network = NetworkModel()
        self._query = query
        self._cluster = cluster
        self._strategy = strategy
        self._workload = workload
        self._batch_size = batch_size
        self._monitor_period = monitor_period
        self._tick_period = tick_period
        self._migration_unit = migration_seconds_per_state
        self._rng = derive_rng(seed)
        self._unit_gaps: list[float] = []
        self._next_gap = 0
        self._monitor = monitor or StatisticsMonitor(query, workload)
        self._trace = trace
        self._network = network

        self._nodes = [
            SimNode(i, capacity) for i, capacity in enumerate(cluster.capacities)
        ]
        placement = strategy.placement
        self._placement: dict[int, int] = {
            op_id: placement.node_of(op_id) for op_id in query.operator_ids
        }
        self._op_ready_at: dict[int, float] = {
            op_id: 0.0 for op_id in query.operator_ids
        }
        self._ops = {op.op_id: op for op in query.operators}

        self._loop = EventLoop()
        self._report: SimulationReport | None = None
        self._next_batch_id = 0
        self._last_plan: LogicalPlan | None = None
        self._duration = 0.0

        # Fault-injection state.
        self._faults = faults
        self._network_base = self._network
        self._partitioned = False
        self._partition_since = 0.0
        #: Batches whose next stage targets an offline node, awaiting
        #: recovery (or a migration that re-homes the operator).
        self._stalled: list[Batch] = []
        #: Batches injected and not yet completed or dropped.
        self._in_flight = 0

    # ------------------------------------------------------------------
    # Introspection for strategies (DYN reads these to rebalance)
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> list[SimNode]:
        """The simulated machines."""
        return self._nodes

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._loop.now

    @property
    def query(self) -> Query:
        """The query under execution."""
        return self._query

    @property
    def current_placement(self) -> Mapping[int, int]:
        """Live operator→node mapping (mutated by migrations)."""
        return dict(self._placement)

    @property
    def monitor(self) -> StatisticsMonitor:
        """The statistics monitor."""
        return self._monitor

    @property
    def active_batches(self) -> int:
        """Batches injected but neither completed nor dropped yet."""
        return self._in_flight

    @property
    def partitioned(self) -> bool:
        """True while a network-partition fault is active."""
        return self._partitioned

    @property
    def report(self) -> SimulationReport:
        """The in-progress (or final) measurement report."""
        if self._report is None:
            raise RuntimeError("run() has not been called yet")
        return self._report

    # ------------------------------------------------------------------
    # Migration (the DYN baseline's lever)
    # ------------------------------------------------------------------

    def migrate(self, op_id: int, target_node: int) -> float:
        """Move an operator to another node, paying a suspension pause.

        The operator cannot serve jobs until its window state has been
        drained and re-built on the target.  Window state grows with
        the stream rate, so the pause is ``state_size ×
        migration_seconds_per_state`` scaled by the current rate
        relative to the compile-time estimate — migrating under load is
        exactly when it hurts most (§6.5 "the state sizes of the moving
        operators").  Returns the pause length.
        """
        if not 0 <= target_node < len(self._nodes):
            raise ValueError(f"no node {target_node} in a {len(self._nodes)}-node cluster")
        if self._placement[op_id] == target_node:
            return 0.0
        rate_ratio = max(
            self._workload.rate(self._loop.now) / self._query.driving_rate, 0.1
        )
        pause = self._ops[op_id].state_size * self._migration_unit * rate_ratio
        now = self._loop.now
        self._placement[op_id] = target_node
        self._op_ready_at[op_id] = max(self._op_ready_at[op_id], now + pause)
        report = self.report
        report.migrations += 1
        report.migration_stall_seconds += pause
        if self._trace is not None:
            self._trace.record(
                TraceEvent(
                    time=now,
                    kind="migration",
                    op_id=op_id,
                    node=target_node,
                    detail=f"pause={pause:.3f}s",
                )
            )
        # A migration may re-home an operator that stalled batches were
        # waiting on (its old node crashed); give them another shot.
        self._redispatch_stalled(now)
        return pause

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _schedule_arrival(self, time: float) -> None:
        rate = self._workload.rate(time)
        if rate <= 0:
            raise ValueError(f"workload rate must be > 0 (got {rate} at t={time})")
        if self._next_gap == len(self._unit_gaps):
            self._unit_gaps = self._rng.standard_exponential(ARRIVAL_CHUNK).tolist()
            self._next_gap = 0
        gap = self._batch_size / rate * self._unit_gaps[self._next_gap]
        self._next_gap += 1
        next_time = time + gap
        if next_time <= self._duration:
            self._loop.schedule(next_time, self._on_arrival, next_time)

    def _on_arrival(self, time: float) -> None:
        self._schedule_arrival(time)
        batch = Batch(
            batch_id=self._next_batch_id,
            created_at=time,
            initial_size=self._batch_size,
        )
        self._next_batch_id += 1
        self._in_flight += 1
        report = self.report
        report.batches_injected += 1
        report.tuples_in += batch.initial_size

        decision = self._strategy.route(time, self._monitor.current())
        batch.plan = decision.plan
        if self._last_plan is not None and decision.plan != self._last_plan:
            report.plan_switches += 1
        self._last_plan = decision.plan
        report.overhead_seconds += decision.overhead_seconds
        if self._trace is not None:
            self._trace.record(
                TraceEvent(
                    time=time,
                    kind="arrival",
                    batch_id=batch.batch_id,
                    plan_label=decision.plan.label,
                    size=batch.size,
                )
            )
        self._submit_stage(batch, time + decision.overhead_seconds)

    def _submit_stage(self, batch: Batch, time: float) -> None:
        """Queue the batch's next stage (it has one) on its operator's node."""
        plan = batch.plan
        assert plan is not None
        op_id = plan.order[batch.stage]
        node_id = self._placement[op_id]
        node = self._nodes[node_id]
        if not node.online:
            # The operator's host is down: park the batch until the
            # node recovers or the operator migrates elsewhere.
            self._stalled.append(batch)
            self.report.batch_stalls += 1
            if self._trace is not None:
                self._trace.record(
                    TraceEvent(
                        time=time,
                        kind="stall",
                        batch_id=batch.batch_id,
                        op_id=op_id,
                        node=node_id,
                        size=batch.size,
                    )
                )
            return
        previous_node = batch.node
        if previous_node >= 0 and previous_node != node_id:
            if self._partitioned:
                self._drop(batch, time, f"partition blocks {previous_node}->{node_id}")
                return
            if self._network is not None:
                delay = self._network.transfer_seconds(batch.size)
                time += delay
                self.report.network_seconds += delay
        batch.node = node_id
        done, service = node.submit(
            time,
            batch.size * self._ops[op_id].cost_per_tuple,
            not_before=self._op_ready_at[op_id],
        )
        self.report.processing_seconds += service
        batch.epoch = node.crash_epoch
        if self._trace is not None:
            self._trace.record(
                TraceEvent(
                    time=time,
                    kind="stage",
                    batch_id=batch.batch_id,
                    op_id=op_id,
                    node=node_id,
                    size=batch.size,
                    detail=f"done={done:.3f}",
                )
            )
        self._loop.schedule(done, self._finish_stage, batch)

    def _finish_stage(self, batch: Batch) -> None:
        now = self._loop.now
        if batch.epoch != self._nodes[batch.node].crash_epoch:
            # The node crashed after this stage started service: the
            # in-flight work died with its queue.
            self._drop(batch, now, f"node {batch.node} crashed mid-service")
            return
        plan = batch.plan
        assert plan is not None
        order = plan.order
        batch.advance(self._workload.selectivity(order[batch.stage], now))
        if batch.stage == len(order):
            self._complete(batch, now)
        else:
            self._submit_stage(batch, now)

    def _drop(self, batch: Batch, time: float, reason: str) -> None:
        """Kill a batch mid-flight (crash or partition) and account it."""
        self._in_flight -= 1
        report = self.report
        report.batches_dropped += 1
        report.tuples_dropped += batch.size
        if self._trace is not None:
            self._trace.record(
                TraceEvent(
                    time=time,
                    kind="drop",
                    batch_id=batch.batch_id,
                    size=batch.size,
                    detail=reason,
                )
            )

    def _redispatch_stalled(self, time: float) -> None:
        """Retry every parked batch; still-offline targets re-park."""
        if not self._stalled:
            return
        pending, self._stalled = self._stalled, []
        for batch in pending:
            self._submit_stage(batch, time)

    def _complete(self, batch: Batch, time: float) -> None:
        self._in_flight -= 1
        self.report.record_batch(
            created_at=batch.created_at,
            completed_at=time,
            input_tuples=batch.initial_size,
            output_tuples=batch.size,
        )
        if self._trace is not None:
            self._trace.record(
                TraceEvent(
                    time=time,
                    kind="complete",
                    batch_id=batch.batch_id,
                    size=batch.size,
                    detail=f"latency={time - batch.created_at:.3f}s",
                )
            )

    def _on_monitor(self, time: float) -> None:
        self._monitor.sample(time)
        next_time = time + self._monitor_period
        if next_time <= self._duration:
            self._loop.schedule(next_time, self._on_monitor, next_time)

    def _on_tick(self, time: float) -> None:
        self._strategy.on_tick(self, time)
        next_time = time + self._tick_period
        if next_time <= self._duration:
            self._loop.schedule(next_time, self._on_tick, next_time)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def _apply_fault(self, event: FaultEvent) -> None:
        now = self._loop.now
        report = self.report
        report.fault_events += 1
        if event.kind == "crash":
            node = self._nodes[event.node]
            if node.online:
                node.fail(now)
                report.node_crashes += 1
        elif event.kind == "recover":
            node = self._nodes[event.node]
            if not node.online:
                assert node.offline_since is not None
                report.node_downtime_seconds += now - node.offline_since
                node.recover(now)
                self._redispatch_stalled(now)
        elif event.kind == "slowdown":
            self._nodes[event.node].set_speed(event.factor)
        elif event.kind == "degrade":
            if self._network_base is not None:
                self._network = (
                    self._network_base
                    # repro-lint: disable=no-float-eq -- factor 1.0 is the exact no-op sentinel the fault schedule emits on heal; it is assigned, never computed
                    if event.factor == 1.0
                    else self._network_base.scaled(event.factor)
                )
        elif event.kind == "partition":
            if not self._partitioned:
                self._partitioned = True
                self._partition_since = now
        elif event.kind == "heal":
            if self._partitioned:
                self._partitioned = False
                report.partition_seconds += now - self._partition_since
        elif event.kind == "monitor_dropout":
            self._monitor.suspend()
        elif event.kind == "monitor_restore":
            self._monitor.resume()
        if self._trace is not None:
            self._trace.record(
                TraceEvent(
                    time=now,
                    kind="fault",
                    node=event.node,
                    detail=event.describe(),
                )
            )
        on_fault = getattr(self._strategy, "on_fault", None)
        if on_fault is not None:
            try:
                on_fault(self, event)
            except FaultError as exc:
                # The sanctioned hook failure: the strategy could not
                # degrade gracefully, but the run (and its accounting)
                # must survive the fault it was injected to measure.
                report.fault_hook_errors += 1
                if self._trace is not None:
                    self._trace.record(
                        TraceEvent(
                            time=now,
                            kind="fault_hook_error",
                            node=event.node,
                            detail=str(exc),
                        )
                    )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, duration: float) -> SimulationReport:
        """Simulate ``duration`` seconds and return the report.

        Batches still in flight at the horizon are *not* counted — under
        overload the produced-tuple timeline flattens, which is the
        §6.5 stall signature the figures rely on.
        """
        ensure_positive(duration, "duration")
        self._duration = duration
        self._report = SimulationReport(duration=duration)
        self._monitor.sample(0.0)
        self._loop.schedule(self._tick_period, self._on_tick, self._tick_period)
        if self._monitor_period <= duration:
            self._loop.schedule(
                self._monitor_period, self._on_monitor, self._monitor_period
            )
        if self._faults is not None:
            for fault in self._faults.events:
                if fault.time <= duration:
                    self._loop.schedule(fault.time, self._apply_fault, fault)
        self._schedule_arrival(0.0)
        self._loop.run_until(duration)
        self._report.node_busy_seconds = [node.busy_seconds for node in self._nodes]
        # Close out failure windows still open at the horizon.
        for node in self._nodes:
            if not node.online and node.offline_since is not None:
                self._report.node_downtime_seconds += duration - node.offline_since
        if self._partitioned:
            self._report.partition_seconds += duration - self._partition_since
        self._report.batches_in_flight = self._in_flight
        self._report.monitor_samples_dropped = self._monitor.samples_dropped
        return self._report
