"""ERP corner prefetch across worker processes, bitwise-identical to serial.

ERP's cost on optimizer-bound compiles is the black-box optimizer call
at each region corner (a Held–Karp search takes ~30 ms on a 12-way
join).  :class:`CornerPrefetcher` pre-solves corners the serial loop is
about to visit on a process pool and hands each answer to the region's
:class:`~repro.core.robustness.RobustnessChecker` with
:meth:`~repro.core.robustness.RobustnessChecker.prefetch`.  The serial
loop then runs unchanged: when it asks for a corner the checker charges
the optimizer call to the caller's optimizer at that moment, so call
budgets, discovery ``at_call`` stamps and the aging counter fire at
exactly the serial step.  Speculation can only waste worker time, never
change an answer.

Workers receive the exact corner points (``space.point_at(index)`` as a
plain dict of floats — pickling floats is exact), solve them with the
uncounted :meth:`~repro.query.optimizer.PointOptimizer.peek`, and return
the plan orders plus their busy seconds.  A wave is tens of small
points, so nothing grid-sized ever crosses the process boundary.
"""

from __future__ import annotations

import multiprocessing
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence, cast

from repro.core.parameter_space import GridIndex, ParameterSpace, Region
from repro.query.optimizer import PointOptimizer
from repro.query.plans import LogicalPlan
from repro.query.statistics import StatPoint
from repro.util.timing import Stopwatch

if TYPE_CHECKING:
    from repro.core.robustness import RobustnessChecker

__all__ = ["CornerPrefetcher"]

#: Pool-map chunks per worker: each wave is split into
#: ``jobs * _CHUNKS_PER_JOB`` chunks so stragglers rebalance, and covers
#: that many queued regions beyond the popped one.
_CHUNKS_PER_JOB = 2


def _start_method() -> str:
    """``fork`` where the platform has it, else the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


# Pool workers receive the optimizer once, through the pool initializer,
# and stash it in this per-process slot; each map task then carries only
# its chunk of points.  The dict is written exactly once per worker
# process, before any task runs.
_WORKER_STATE: dict[str, Any] = {}  # repro-lint: disable=no-module-mutable-state -- per-worker-process slot filled once by the pool initializer before any task executes; never shared across processes


def _worker_init(optimizer: PointOptimizer) -> None:
    """Pool initializer: install the optimizer workers search with."""
    _WORKER_STATE["optimizer"] = optimizer


def _solve_chunk(
    points: Sequence[Mapping[str, float]],
) -> tuple[list[tuple[int, ...]], float]:
    """Plan orders for one chunk of points, plus the worker's busy seconds."""
    watch = Stopwatch()
    optimizer = cast(PointOptimizer, _WORKER_STATE["optimizer"])
    orders = [optimizer.peek(StatPoint(point)).order for point in points]
    return orders, watch.seconds


class CornerPrefetcher:
    """Wave-based speculative evaluation of ERP region corners.

    Owns a pool of ``jobs`` worker processes for one partitioning run;
    :meth:`close` it (the partitioner does so in a ``finally``).  When
    the serial loop pops a region with a corner not yet known to the
    checker, one *wave* pre-solves every still-unknown corner of that
    region and of the next :attr:`wave_regions` queued regions in a
    single pool map — the corners the serial run is about to visit.
    The cap keeps speculation demand-matched: ERP's aging stop routinely
    abandons the queue's tail, so prefetching the whole queue would burn
    worker time on corners no one will ever ask for.
    """

    def __init__(
        self, space: ParameterSpace, optimizer: PointOptimizer, jobs: int
    ) -> None:
        self._space = space
        self._n_chunks = jobs * _CHUNKS_PER_JOB
        context = multiprocessing.get_context(_start_method())
        self._pool = context.Pool(
            jobs, initializer=_worker_init, initargs=(optimizer,)
        )
        self._busy_seconds = 0.0

    @property
    def wave_regions(self) -> int:
        """Queued regions (beyond the popped one) each wave covers."""
        return self._n_chunks

    @property
    def busy_seconds(self) -> float:
        """Worker busy seconds summed over every wave so far."""
        return self._busy_seconds

    @staticmethod
    def _corners(region: Region) -> tuple[GridIndex, ...]:
        return (region.lo,) if region.is_cell else (region.lo, region.hi)

    def ensure(
        self,
        region: Region,
        queued: Iterable[Region],
        checker: "RobustnessChecker",
    ) -> None:
        """Prefetch the wave covering ``region`` if any corner is unknown."""
        if all(checker.has_cached(c) for c in self._corners(region)):
            return
        wanted: set[GridIndex] = set()
        for other in (region, *queued):
            wanted.update(
                c for c in self._corners(other) if not checker.has_cached(c)
            )
        indices = sorted(wanted)
        n_chunks = min(len(indices), self._n_chunks)
        chunks = [indices[i::n_chunks] for i in range(n_chunks)]
        results = self._pool.map(
            _solve_chunk,
            [[dict(self._space.point_at(i)) for i in chunk] for chunk in chunks],
        )
        for chunk, (orders, seconds) in zip(chunks, results):
            self._busy_seconds += seconds
            for index, order in zip(chunk, orders):
                checker.prefetch(index, LogicalPlan(order))

    def close(self) -> None:
        """Terminate the worker pool."""
        self._pool.terminate()
        self._pool.join()
