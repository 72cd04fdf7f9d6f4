"""Minimal discrete-event loop.

A binary-heap agenda of ``(time, sequence, action, arg)`` entries; an
entry fires as ``action(arg)``.  Handing the loop a bound method and
its argument, rather than a closure over them, keeps scheduling free
of a per-event allocation.  The sequence number makes simultaneous
events fire in scheduling order (and keeps the heap from ever comparing
actions), which keeps whole simulations deterministic under a fixed
seed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, TypeVar

__all__ = ["EventLoop"]

T = TypeVar("T")


class EventLoop:
    """Time-ordered execution of scheduled one-argument actions."""

    def __init__(self) -> None:
        self._agenda: list[tuple[float, int, Callable[[Any], object], Any]] = []
        self._sequence = 0
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still on the agenda."""
        return len(self._agenda)

    @property
    def processed(self) -> int:
        """Total events executed so far."""
        return self._processed

    def schedule(self, time: float, action: Callable[[T], object], arg: T) -> None:
        """Enqueue ``action(arg)`` to run at simulated ``time``.

        Scheduling into the past raises: it would silently reorder
        causality, which is always a simulation bug.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time:.6f}s before current time "
                f"{self._now:.6f}s"
            )
        heapq.heappush(self._agenda, (time, self._sequence, action, arg))
        self._sequence += 1

    def run_until(self, end_time: float) -> None:
        """Execute events in time order up to and including ``end_time``.

        Events scheduled past ``end_time`` stay on the agenda; the clock
        is left at ``end_time`` (or the last event's time if larger than
        the previous clock but no event remains).
        """
        agenda = self._agenda
        pop = heapq.heappop
        while agenda and agenda[0][0] <= end_time:
            time, _, action, arg = pop(agenda)
            self._now = time
            self._processed += 1
            action(arg)
        if end_time > self._now:
            self._now = end_time
