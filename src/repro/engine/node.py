"""Simulated cluster machines.

Each node is a single-server FIFO queue with a CPU capacity in cost
units per second: a job of ``work`` cost units takes ``work/capacity``
seconds of service.  The node keeps an ``available_at`` horizon — jobs
start at the max of their arrival, the node's horizon, and any
operator-level suspension (used by DYN migrations) — and accumulates
busy time for utilization accounting.

Fault injection adds two degradation states: a node may be *slowed*
(``speed_factor`` scales its effective capacity for jobs submitted
while the slowdown holds) or *offline* after a crash.  A crash wipes
the queued backlog — work in service is lost, which the simulator
detects via ``crash_epoch`` and accounts as dropped batches — and the
node refuses submissions until :meth:`SimNode.recover`.
"""

from __future__ import annotations

from repro.util.validation import ensure_positive

__all__ = ["SimNode"]


class SimNode:
    """One machine: capacity, FIFO service horizon, busy-time ledger."""

    def __init__(self, node_id: int, capacity: float) -> None:
        ensure_positive(capacity, f"capacity of node {node_id}")
        self._node_id = node_id
        self._capacity = capacity
        self._available_at = 0.0
        self._busy_seconds = 0.0
        self._jobs = 0
        self._speed = 1.0
        self._online = True
        self._offline_since: float | None = None
        self._crash_epoch = 0

    @property
    def node_id(self) -> int:
        """Index of this node in the cluster."""
        return self._node_id

    @property
    def capacity(self) -> float:
        """Processing capacity in cost units per second."""
        return self._capacity

    @property
    def available_at(self) -> float:
        """Earliest time a newly arriving job could start service."""
        return self._available_at

    @property
    def busy_seconds(self) -> float:
        """Cumulative service time scheduled on this node."""
        return self._busy_seconds

    @property
    def jobs_served(self) -> int:
        """Number of jobs scheduled on this node."""
        return self._jobs

    @property
    def online(self) -> bool:
        """False while the node is crashed."""
        return self._online

    @property
    def offline_since(self) -> float | None:
        """Start of the current outage, or ``None`` when online."""
        return self._offline_since

    @property
    def crash_epoch(self) -> int:
        """Crash counter; a job whose epoch changed mid-service is lost."""
        return self._crash_epoch

    @property
    def speed_factor(self) -> float:
        """Current capacity multiplier (1.0 = healthy, <1 = throttled)."""
        return self._speed

    @property
    def effective_capacity(self) -> float:
        """Capacity after any active slowdown."""
        return self._capacity * self._speed

    def set_speed(self, factor: float) -> None:
        """Throttle (or restore) the node's capacity.

        Only affects jobs submitted after the change — work already on
        the FIFO horizon keeps its computed completion time, the same
        approximation the horizon model makes for queueing itself.
        """
        ensure_positive(factor, f"speed factor of node {self._node_id}")
        self._speed = factor

    def fail(self, time: float) -> None:
        """Crash the node: wipe its backlog and refuse new work.

        Jobs whose completion was already scheduled are detected as
        lost by the simulator through the epoch bump; the busy-time
        ledger keeps the service it had scheduled (utilization reports
        cover work *scheduled*, not work that survived).
        """
        if not self._online:
            return
        self._online = False
        self._offline_since = time
        self._crash_epoch += 1
        self._available_at = time

    def recover(self, time: float) -> None:
        """Bring a crashed node back with an empty queue."""
        if self._online:
            return
        self._online = True
        self._offline_since = None
        self._available_at = max(self._available_at, time)

    def service_seconds(self, work: float) -> float:
        """Seconds of service a job of ``work`` cost units needs now."""
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        return work / self.effective_capacity

    def submit(
        self, arrival: float, work: float, not_before: float = 0.0
    ) -> tuple[float, float]:
        """Enqueue a job; returns its completion time and its service.

        The job starts at ``max(arrival, available_at, not_before)``
        (``not_before`` models operator suspension during migration) and
        occupies the server for ``work/effective_capacity`` seconds, the
        service it is charged and the second value returned.
        Submitting to an offline node is a simulator bug — callers must
        stall or reroute batches for crashed nodes.
        """
        if not self._online:
            raise RuntimeError(
                f"node {self._node_id} is offline; the simulator must stall "
                f"or reroute instead of submitting"
            )
        start = max(arrival, self._available_at, not_before)
        service = self.service_seconds(work)
        done = self._available_at = start + service
        self._busy_seconds += service
        self._jobs += 1
        return done, service

    def utilization(self, horizon: float) -> float:
        """Busy fraction over ``[0, horizon]`` (may exceed 1 under backlog).

        A value above 1.0 means the node has scheduled more service time
        than wall-clock elapsed — an unbounded queue, the §6.5 overload
        signature.
        """
        ensure_positive(horizon, "horizon")
        return self._busy_seconds / horizon

    def __repr__(self) -> str:
        state = "online" if self._online else "OFFLINE"
        return (
            f"SimNode(id={self._node_id}, capacity={self._capacity:.3g}, "
            f"busy={self._busy_seconds:.3f}s, jobs={self._jobs}, {state})"
        )
