"""ROD baseline: resilient operator distribution (Xing et al., VLDB'06).

As characterized in §7, ROD computes a single *feasible* physical plan
meant to stay feasible under input-rate variations, but (1) it executes
one fixed logical plan — no plan switching, (2) it never migrates, and
(3) it assumes operator load is linear in input rate with constant
selectivities.  We reproduce that behaviour: the logical plan optimal
at the point estimate, placed by load-balancing LLF/LPT (maximizing
per-node headroom, the proxy for ROD's feasible-region maximization),
then frozen for the whole run.
"""

from __future__ import annotations

from repro.core.greedy_phy import largest_load_first
from repro.core.physical import Cluster, InfeasiblePlacementError, PhysicalPlan
from repro.engine.faults import FaultEvent
from repro.engine.system import RoutingDecision, StreamSimulator
from repro.query.model import Query
from repro.query.plans import LogicalPlan
from repro.query.statistics import StatPoint

__all__ = ["RODStrategy", "place_estimate_plan"]


def place_estimate_plan(
    strategy: str, query: Query, cluster: Cluster, estimate: StatPoint | None
) -> tuple[LogicalPlan, PhysicalPlan]:
    """The logical plan optimal at the estimate, placed by LLF on its
    loads there — the fixed starting point of ROD and DYN.

    ``estimate`` defaults to the query's own estimates.  Raises
    :class:`InfeasiblePlacementError`, naming ``strategy``, when the
    loads do not fit the cluster.
    """
    from repro.query.optimizer import make_optimizer  # local: avoids cycle at import

    point = estimate or query.estimate_point()
    optimizer = make_optimizer(query)
    plan = optimizer.optimize(point)
    loads = optimizer.cost_model.operator_loads(plan, point)
    placement = largest_load_first(loads, cluster)
    if placement is None:
        raise InfeasiblePlacementError(
            f"{strategy} cannot place query {query.name!r} at its estimate "
            f"point within the given cluster"
        )
    return plan, placement


class RODStrategy:
    """One estimate-optimal logical plan on one balanced static placement."""

    name = "ROD"

    def __init__(
        self,
        query: Query,
        cluster: Cluster,
        *,
        estimate: StatPoint | None = None,
    ) -> None:
        self._query = query
        self._cluster = cluster
        self._plan, self._placement = place_estimate_plan(
            self.name, query, cluster, estimate
        )

    @property
    def placement(self) -> PhysicalPlan:
        """The balanced static placement (never changes)."""
        return self._placement

    @property
    def logical_plan(self) -> LogicalPlan:
        """The single logical plan ROD executes forever."""
        return self._plan

    def route(self, time: float, stats: StatPoint) -> RoutingDecision:
        """Always the compile-time plan, zero routing overhead."""
        return RoutingDecision(plan=self._plan, overhead_seconds=0.0)

    def on_tick(self, simulator: StreamSimulator, time: float) -> None:
        """ROD never adapts at runtime."""

    def on_fault(self, simulator: StreamSimulator, event: FaultEvent) -> None:
        """ROD has no failure response: batches bound for a crashed
        node stall until it recovers and latency simply degrades — the
        cost of a placement chosen once and frozen."""
