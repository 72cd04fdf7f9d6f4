"""RLD with a migration escape hatch for unexpected fluctuations.

§2.2's caveat: "If suddenly some totally unexpected fluctuation arises
in the future, our current solution may not be able to handle it, and
we may have to exploit operator migration to resolve such scenarios
after all."  :class:`RLDHybridStrategy` implements exactly that
extension: it behaves as pure RLD while the monitored statistics stay
inside the compiled parameter space, and only once they leave it (with
some tolerance) *and* the placement is saturating does it fall back to
DYN-style rebalancing migrations — rare, last-resort moves rather than
continuous chasing.
"""

from __future__ import annotations

from typing import Any

from repro.core.rld import RLDSolution
from repro.engine.system import StreamSimulator
from repro.query.statistics import StatPoint
from repro.runtime.rld_runtime import RLDStrategy
from repro.util.validation import ensure_positive

__all__ = ["RLDHybridStrategy"]


class RLDHybridStrategy(RLDStrategy):
    """RLD plus last-resort migration outside the compiled space.

    Parameters
    ----------
    solution:
        The compiled RLD solution (as for :class:`RLDStrategy`).
    space_tolerance:
        Multiplicative slack on the space bounds before statistics
        count as "outside" (1.1 = 10% beyond Algorithm 1's box).
    saturation_threshold:
        Minimum bottleneck utilization (of the routed plan, on the
        live placement) before a migration is considered.
    cooldown_seconds:
        Minimum spacing between fallback migrations.
    """

    name = "RLD+M"

    def __init__(
        self,
        solution: RLDSolution,
        *,
        space_tolerance: float = 1.1,
        saturation_threshold: float = 1.0,
        cooldown_seconds: float = 30.0,
        **rld_kwargs: Any,
    ) -> None:
        super().__init__(solution, **rld_kwargs)
        if space_tolerance < 1.0:
            raise ValueError(
                f"space_tolerance must be >= 1.0, got {space_tolerance}"
            )
        ensure_positive(saturation_threshold, "saturation_threshold")
        ensure_positive(cooldown_seconds, "cooldown_seconds")
        self._tolerance = space_tolerance
        self._saturation = saturation_threshold
        self._cooldown = cooldown_seconds
        self._last_migration = -float("inf")
        self._last_busy: list[float] | None = None
        self._last_tick_time = 0.0

    def in_compiled_space(self, stats: StatPoint) -> bool:
        """True when every monitored dimension is inside the space box."""
        for dim in self._space.dimensions:
            value = stats.get(dim.name)
            if value is None:
                continue
            lo = dim.lo / self._tolerance
            hi = dim.hi * self._tolerance
            if not lo <= float(value) <= hi:
                return False
        return True

    def on_tick(self, simulator: StreamSimulator, time: float) -> None:
        """Migrate only when stats left the space and a node saturates."""
        nodes = simulator.nodes
        busy = [node.busy_seconds for node in nodes]
        if self._last_busy is None:
            self._last_busy, self._last_tick_time = busy, time
            return
        window = time - self._last_tick_time
        previous, self._last_busy = self._last_busy, busy
        self._last_tick_time = time
        if window <= 0:
            return

        stats = simulator.monitor.current()
        if self.in_compiled_space(stats):
            return  # pure RLD territory: the classifier handles it
        if time - self._last_migration < self._cooldown:
            return

        utilization = [(b - p) / window for b, p in zip(busy, previous)]
        alive = [i for i, node in enumerate(nodes) if node.online]
        if len(alive) < 2:
            return
        hot = max(alive, key=lambda i: utilization[i])
        if utilization[hot] < self._saturation:
            return

        # Source: the busiest online node that can actually give an
        # operator up (moving a node's only operator just relocates the
        # bottleneck).
        placement = simulator.current_placement
        ops_by_node: dict[int, list[int]] = {}
        for op, node in placement.items():
            ops_by_node.setdefault(node, []).append(op)
        donors = sorted(
            (
                node
                for node, ops in ops_by_node.items()
                if len(ops) >= 2 and nodes[node].online
            ),
            key=lambda node: -utilization[node],
        )
        if not donors:
            return
        source = donors[0]
        cold = min(alive, key=lambda i: utilization[i])
        if cold == source:
            return

        plan = self._plan_for(stats)
        loads = self._cost_model.operator_loads(plan, stats)
        gap = (utilization[source] - utilization[cold]) * nodes[source].capacity
        candidate = min(
            ops_by_node[source], key=lambda op: (abs(loads[op] - gap / 2.0), op)
        )
        simulator.migrate(candidate, cold)
        self._last_migration = time
