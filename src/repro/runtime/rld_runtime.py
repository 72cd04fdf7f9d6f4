"""The RLD runtime strategy: fixed placement, per-batch plan switching.

Implements the paper's "Robust load executor" (§3): the physical plan
produced at compile time is instantiated once and never changes; an
online classifier inspects the monitor's latest statistics and routes
each tuple batch through the robust logical plan that is cheapest
there.  Classification is cheap — the paper measures it at about 2% of
query execution cost — and is charged here as a configurable fraction
of each batch's expected processing time, so the reported
``overhead_fraction`` reproduces that measurement.
"""

from __future__ import annotations

from repro.core.physical import InfeasiblePlacementError, PhysicalPlan
from repro.core.rld import RLDSolution
from repro.engine.faults import FaultEvent
from repro.engine.system import RoutingDecision, StreamSimulator
from repro.query.cost import PlanCostModel, Steps
from repro.query.plans import LogicalPlan
from repro.query.statistics import StatPoint
from repro.util.validation import ensure_in_range

__all__ = ["RLDStrategy"]

#: Above this many grid points every batch is routed at its exact
#: statistics instead of at the nearest grid cell.  The routing memo
#: holds only the cells batches visit, so this is no memory guard: it
#: keeps routing unchanged, since snapping to a larger grid would route
#: some batches differently.
MAX_TABLE_POINTS = 200_000


class RLDStrategy:
    """Online classifier over a compiled :class:`RLDSolution`.

    Parameters
    ----------
    solution:
        Compile-time output of :class:`~repro.core.rld.RLDOptimizer`.
    classify_overhead_fraction:
        Routing cost charged per batch, as a fraction of the batch's
        expected processing seconds (§6.5 measures ≈ 0.02).
    batch_size:
        Expected tuples per batch, for the overhead estimate.
    overload_threshold:
        Bottleneck utilization at which routing switches from the
        cheapest plan to the least-bottlenecked one.
    """

    name = "RLD"

    def __init__(
        self,
        solution: RLDSolution,
        *,
        classify_overhead_fraction: float = 0.02,
        batch_size: float = 100.0,
        overload_threshold: float = 0.95,
    ) -> None:
        ensure_in_range(
            classify_overhead_fraction, "classify_overhead_fraction", 0.0, 1.0
        )
        if overload_threshold <= 0:
            raise ValueError(
                f"overload_threshold must be > 0, got {overload_threshold}"
            )
        if not solution.feasible:
            raise InfeasiblePlacementError(
                "RLD solution's physical plan supports no logical plan; "
                "increase cluster resources or relax epsilon"
            )
        self._solution = solution
        self._plans: tuple[LogicalPlan, ...] = solution.supported_plans
        self._cost_model: PlanCostModel = solution.logical.cost_model
        self._overhead_fraction = classify_overhead_fraction
        self._batch_size = batch_size
        self._overload_threshold = overload_threshold
        cluster = solution.cluster
        self._mean_capacity = cluster.total_capacity / cluster.n_nodes
        self._capacities = cluster.capacities
        #: Nodes currently offline (maintained via the on_fault hook).
        self._down: set[int] = set()

        # ---- Decision kernel layout ----------------------------------
        # Statistics resolve once per decision (PlanCostModel.resolve);
        # each plan is priced from its cost-model steps and loads its
        # operators' host nodes.  The hot path passes step tuples, not
        # plans, so it never hashes a LogicalPlan.
        self._steps = [self._cost_model.steps(plan) for plan in self._plans]
        self._hosts = [self._hosts_of(plan) for plan in self._plans]
        # Scanning plans in plan.order and keeping the first minimum
        # gives every argmin the (…, plan.order) tie-break.
        self._by_order = sorted(
            range(len(self._plans)), key=lambda i: self._plans[i].order
        )

        # ---- Routing memo over grid cells ------------------------------
        # flat grid cell → plan index for the current down-set, filled
        # on first lookup by running the kernel at the cell's grid
        # values and cleared when a fault changes node liveness.
        self._space = solution.space
        self._memo: dict[int, int] = {}
        self._table_hits = 0
        self._table_misses = 0
        self._table_rebuilds = 0
        self._table_enabled = self._space.n_points <= MAX_TABLE_POINTS
        # Cost-relevant parameters that are *not* space dimensions sit
        # at their model defaults in every grid cell; if the monitor
        # reports a drifted value for one of them, the cell no longer
        # describes the live cost surface and the lookup must miss.
        dim_names = set(self._space.names)
        self._off_dim_defaults = {
            name: default
            for name, default in solution.query.estimate_point().items()
            if name not in dim_names
        }

    @property
    def placement(self) -> PhysicalPlan:
        """The fixed robust physical plan (never migrates)."""
        plan = self._solution.physical.physical_plan
        assert plan is not None  # guarded in __init__
        return plan

    @property
    def candidate_plans(self) -> tuple[LogicalPlan, ...]:
        """Robust logical plans the classifier may route batches to."""
        return self._plans

    @property
    def down_nodes(self) -> frozenset[int]:
        """Nodes the strategy currently believes are offline."""
        return frozenset(self._down)

    def bottleneck_node(self, plan: LogicalPlan, stats: StatPoint) -> int:
        """The node this plan loads hardest relative to its capacity."""
        steps = self._cost_model.steps(plan)
        rate, sels = self._cost_model.resolve(stats)
        return self._bottleneck(steps, self._hosts_of(plan), rate, sels)[0]

    # ------------------------------------------------------------------
    # The decision kernel
    # ------------------------------------------------------------------

    def _hosts_of(self, plan: LogicalPlan) -> tuple[int, ...]:
        """Each operator's host node, in plan order."""
        return tuple(self.placement.node_of(op_id) for op_id in plan)

    def _bottleneck(
        self,
        steps: Steps,
        hosts: tuple[int, ...],
        rate: float,
        sels: list[float],
    ) -> tuple[int, float]:
        """The node a plan loads hardest relative to its capacity
        (lowest index on ties), and that node's utilization."""
        per_node = [0.0] * len(self._capacities)
        for node, load in zip(hosts, PlanCostModel.loads_at(steps, rate, sels)):
            per_node[node] += load
        utilization = [
            load / capacity for load, capacity in zip(per_node, self._capacities)
        ]
        node = max(range(len(utilization)), key=lambda i: utilization[i])
        return node, utilization[node]

    def _decide(self, rate: float, sels: list[float]) -> tuple[int, float]:
        """Index of the plan a batch at these statistics goes to, and its cost.

        Normally the cheapest plan (§3's online classifier).  Two
        degraded modes:

        * When the cheapest plan's bottleneck node is *down* (fault
          injection), fall back to the best surviving candidate — a
          supported plan whose bottleneck is still online, cheapest
          first; if every candidate bottlenecks on a dead node, pick
          the one sending the least load to dead nodes.  Batches still
          traverse every operator, but the surviving plan thins them
          before the dead node's operator, so the stalled queue there
          stays short and drains quickly after recovery.
        * When even the cheapest plan would saturate some machine
          (bottleneck utilization ≥ ``overload_threshold``), switch
          objective to minimizing that bottleneck — the statistics are
          then outside the space the plan set was costed for, and
          sustained throughput is governed by the hottest node, not by
          total work.

        Node loads are computed only for the plans a branch inspects.
        """
        steps, hosts = self._steps, self._hosts
        cost_at = PlanCostModel.cost_at
        costs = [cost_at(plan_steps, rate, sels) for plan_steps in steps]
        best = min(self._by_order, key=lambda p: costs[p])
        if len(steps) == 1:
            return best, costs[best]
        down = self._down
        node, peak = self._bottleneck(steps[best], hosts[best], rate, sels)
        if node in down:
            pool = [
                p
                for p in self._by_order
                if self._bottleneck(steps[p], hosts[p], rate, sels)[0] not in down
            ] or self._by_order
            dead_load = {
                p: sum(
                    load
                    for host, load in zip(
                        hosts[p], PlanCostModel.loads_at(steps[p], rate, sels)
                    )
                    if host in down
                )
                for p in pool
            }
            best = min(pool, key=lambda p: (dead_load[p], costs[p]))
        elif peak >= self._overload_threshold:
            peaks = [
                self._bottleneck(plan_steps, plan_hosts, rate, sels)[1]
                for plan_steps, plan_hosts in zip(steps, hosts)
            ]
            best = min(self._by_order, key=lambda p: (peaks[p], costs[p]))
        return best, costs[best]

    # ------------------------------------------------------------------
    # Routing memo (the classifier fast path)
    # ------------------------------------------------------------------

    @property
    def routing_table_enabled(self) -> bool:
        """False when the space is too large to route by grid cell."""
        return self._table_enabled

    @property
    def table_hits(self) -> int:
        """Batches routed by grid cell."""
        return self._table_hits

    @property
    def table_misses(self) -> int:
        """Batches routed at exact statistics (off-grid or disabled)."""
        return self._table_misses

    @property
    def table_rebuilds(self) -> int:
        """On-grid lookups that started a fresh memo: the first one,
        and the first one after each liveness change."""
        return self._table_rebuilds

    @property
    def memo_size(self) -> int:
        """Grid cells memoized for the current down-set."""
        return len(self._memo)

    def _grid_cell(self, stats: StatPoint) -> int | None:
        """The flat grid cell to route ``stats`` by; ``None`` is a miss.

        Misses when routing by cell is disabled (space too large), when
        any cost parameter *outside* the space drifted from its
        default, or when the statistics fall off-grid (beyond half a
        cell outside the box).
        """
        if not self._table_enabled:
            return None
        for name, default in self._off_dim_defaults.items():
            value = stats.get(name)
            if value is not None and abs(float(value) - default) > 1e-9 * max(
                abs(default), 1.0
            ):
                return None
        return self._space.nearest_flat_index(stats)

    def route(self, time: float, stats: StatPoint) -> RoutingDecision:
        """Classify the batch to a supported robust plan.

        On-grid statistics snap to the nearest grid cell, whose decision
        is memoized per down-set; others run the kernel at the exact
        statistics.  Either way the batch is charged the chosen plan's
        cost at the exact statistics.
        """
        resolve = self._cost_model.resolve
        rate, sels = resolve(stats)
        flat = self._grid_cell(stats)
        if flat is None:
            self._table_misses += 1
            index, cost = self._decide(rate, sels)
        else:
            self._table_hits += 1
            cached = self._memo.get(flat)
            if cached is None:
                if not self._memo:
                    self._table_rebuilds += 1
                cell = self._space.point_at(self._space.index_of_flat(flat))
                cached = self._memo[flat] = self._decide(*resolve(cell))[0]
            index = cached
            cost = PlanCostModel.cost_at(self._steps[index], rate, sels)
        overhead = self._classification_overhead(cost, rate)
        return RoutingDecision(plan=self._plans[index], overhead_seconds=overhead)

    def _plan_for(self, stats: StatPoint) -> LogicalPlan:
        """The plan :meth:`route` would pick at ``stats``, for decisions
        that route no batch: no routing counter or memo entry moves."""
        flat = self._grid_cell(stats)
        if flat is not None:
            stats = self._space.point_at(self._space.index_of_flat(flat))
        return self._plans[self._decide(*self._cost_model.resolve(stats))[0]]

    def _classification_overhead(self, cost: float, rate: float) -> float:
        """Charge ≈ ``fraction`` of the batch's expected service seconds,
        given the routed plan's ``cost`` at the batch's statistics and
        the ``rate`` that cost was priced at."""
        if self._overhead_fraction <= 0.0:
            return 0.0
        if rate <= 0:
            return 0.0
        per_tuple_cost = cost / rate
        expected_seconds = self._batch_size * per_tuple_cost / self._mean_capacity
        return self._overhead_fraction * expected_seconds

    def on_tick(self, simulator: StreamSimulator, time: float) -> None:
        """RLD never migrates; nothing to do on ticks."""

    def on_fault(self, simulator: StreamSimulator | None, event: FaultEvent) -> None:
        """Track node liveness so routing can avoid dead bottlenecks.

        RLD's graceful degradation is purely logical: the placement
        never changes, but the classifier reroutes batches through the
        candidate plan that burdens the dead node least.  Any liveness
        change clears the routing memo; on-grid batches refill it for
        the new down-set.
        """
        if event.kind == "crash" and event.node is not None:
            if event.node not in self._down:
                self._down.add(event.node)
                self._memo.clear()
        elif event.kind == "recover" and event.node is not None:
            if event.node in self._down:
                self._down.discard(event.node)
                self._memo.clear()
