"""DYN baseline: dynamic load distribution (Borealis-style, §7).

DYN keeps the single estimate-optimal logical plan (load migration
"only changes the operators' physical layout", §6.5) but continuously
rebalances: on each strategy tick it compares node utilizations over
the last window and, when the hot/cold gap exceeds a threshold, moves
one operator from the hottest node to the coolest — paying the
migration pause (execution suspension of the moved operator) that the
paper identifies as DYN's Achilles heel under short-term fluctuations.
"""

from __future__ import annotations

from repro.core.physical import Cluster, PhysicalPlan
from repro.engine.faults import FaultError, FaultEvent
from repro.engine.system import RoutingDecision, StreamSimulator
from repro.query.cost import PlanCostModel
from repro.query.model import Query
from repro.query.plans import LogicalPlan
from repro.query.statistics import StatPoint
from repro.runtime.rod import place_estimate_plan
from repro.util.validation import ensure_positive

__all__ = ["DYNStrategy"]


class DYNStrategy:
    """Threshold-triggered operator migration on top of a fixed plan.

    Parameters
    ----------
    query, cluster:
        The workload and machines.
    estimate:
        Statistics point for the initial plan/placement (defaults to
        the query's estimates).
    imbalance_threshold:
        Minimum hot−cold utilization gap (fraction of capacity) that
        triggers a migration.
    cooldown_seconds:
        Minimum time between consecutive migrations (adaptation delay).
    """

    name = "DYN"

    def __init__(
        self,
        query: Query,
        cluster: Cluster,
        *,
        estimate: StatPoint | None = None,
        imbalance_threshold: float = 0.15,
        cooldown_seconds: float = 10.0,
    ) -> None:
        ensure_positive(imbalance_threshold, "imbalance_threshold")
        ensure_positive(cooldown_seconds, "cooldown_seconds")
        self._query = query
        self._cluster = cluster
        self._plan, self._placement = place_estimate_plan(
            self.name, query, cluster, estimate
        )
        self._cost_model = PlanCostModel(query)
        self._threshold = imbalance_threshold
        self._cooldown = cooldown_seconds
        self._last_migration = -float("inf")
        self._last_busy: list[float] | None = None
        self._last_tick_time = 0.0

    @property
    def placement(self) -> PhysicalPlan:
        """The *initial* placement; the simulator tracks live changes."""
        return self._placement

    @property
    def logical_plan(self) -> LogicalPlan:
        """The single logical plan DYN executes (it never re-orders)."""
        return self._plan

    def route(self, time: float, stats: StatPoint) -> RoutingDecision:
        """Always the compile-time plan; rebalancing happens on ticks."""
        return RoutingDecision(plan=self._plan, overhead_seconds=0.0)

    def on_tick(self, simulator: StreamSimulator, time: float) -> None:
        """Check window utilizations; migrate one operator if imbalanced.

        Only online nodes participate: a crashed node is neither a
        donor (its operators were already evacuated by
        :meth:`on_fault`) nor a target.
        """
        nodes = simulator.nodes
        busy = [node.busy_seconds for node in nodes]
        if self._last_busy is None:
            self._last_busy, self._last_tick_time = busy, time
            return
        window = time - self._last_tick_time
        if window <= 0:
            return
        utilization = [
            (b - prev) / window
            for b, prev in zip(busy, self._last_busy)
        ]
        self._last_busy, self._last_tick_time = busy, time

        alive = [i for i, node in enumerate(nodes) if node.online]
        if len(alive) < 2:
            return
        hot = max(alive, key=lambda i: utilization[i])
        cold = min(alive, key=lambda i: utilization[i])
        gap = utilization[hot] - utilization[cold]
        if gap < self._threshold or hot == cold:
            return
        if time - self._last_migration < self._cooldown:
            return  # adaptation delay: a migration opportunity is missed

        placement = simulator.current_placement
        hot_ops = [op for op, node in placement.items() if node == hot]
        if not hot_ops:
            return
        # Estimate each candidate's current load from monitored stats and
        # move the operator closest to half the gap (avoids ping-pong).
        stats = simulator.monitor.current()
        loads = self._cost_model.operator_loads(self._plan, stats)
        target_transfer = gap * nodes[hot].capacity / 2.0
        candidate = min(
            hot_ops, key=lambda op: (abs(loads[op] - target_transfer), op)
        )
        simulator.migrate(candidate, cold)
        self._last_migration = time

    def on_fault(self, simulator: StreamSimulator, event: FaultEvent) -> None:
        """Evacuate a crashed node by force-migrating its operators.

        This is DYN's reaction to infrastructure failure: every
        operator hosted on the dead node is immediately re-homed to the
        least-loaded surviving node, paying the full migration pause
        for each — adaptation works, but the stalls are the bill (the
        same Achilles heel §6.5 charges DYN for under load drift).
        Ignores the cooldown: a crash is not an imbalance signal.

        Only :class:`FaultError` may escape this hook — anything the
        evacuation trips over (a concurrent fault invalidating the
        placement, a migration rejected mid-flight) is converted so the
        engine's fault accounting survives the failure it was injected
        to measure.
        """
        if event.kind != "crash" or event.node is None:
            return
        try:
            placement = simulator.current_placement
            dead_ops = sorted(
                op for op, node in placement.items() if node == event.node
            )
            if not dead_ops:
                return
            survivors = [node for node in simulator.nodes if node.online]
            if not survivors:
                return  # total outage: nothing to evacuate to
            for op in dead_ops:
                target = min(survivors, key=lambda n: (n.busy_seconds, n.node_id))
                simulator.migrate(op, target.node_id)
            self._last_migration = simulator.now
        except FaultError:
            raise
        except Exception as exc:
            raise FaultError(
                f"DYN evacuation of node {event.node} failed: {exc}"
            ) from exc
