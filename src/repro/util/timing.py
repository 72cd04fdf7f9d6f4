"""Wall-clock stage accounting for the compile pipeline.

:class:`StageTimer` accumulates seconds per named stage; the RLD
optimizer threads one through its pipeline so ``repro compile
--profile`` can print a partitioning / robustness / physical-mapping
breakdown without every stage re-inventing ``time.perf_counter`` pairs.
:class:`Stopwatch` is the single-interval form for ``compile_seconds``
style measurements.

This module is the *only* place outside benchmarks allowed to read the
host clock: the ``no-wallclock`` lint rule (see
:mod:`repro.analysis.checks.wallclock`) allowlists exactly this file,
so every timing need in the simulation/compile packages must route
through here.  Keeping one home makes the determinism boundary
auditable — wall-clock readings may feed *profiles*, never *results*.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["StageTimer", "Stopwatch"]


class Stopwatch:
    """Measures one elapsed interval from construction (or :meth:`restart`).

    The ``start = perf_counter() ... elapsed = perf_counter() - start``
    idiom as an object, so compile passes record their
    ``compile_seconds`` without touching :mod:`time` directly::

        watch = Stopwatch()
        ...                      # do the work
        result.compile_seconds = watch.seconds
    """

    def __init__(self) -> None:
        self._start = time.perf_counter()

    @property
    def seconds(self) -> float:
        """Seconds elapsed since construction or the last restart."""
        return time.perf_counter() - self._start

    def restart(self) -> None:
        """Reset the interval origin to now."""
        self._start = time.perf_counter()


class StageTimer:
    """Accumulates wall-clock seconds under named stages.

    Stages may be entered repeatedly; their durations add up.  Insertion
    order is preserved, so a profile prints in pipeline order.
    """

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager timing one stage entry."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._seconds[name] = (
                self._seconds.get(name, 0.0) + time.perf_counter() - start
            )

    @property
    def seconds(self) -> dict[str, float]:
        """Stage name → accumulated seconds, in insertion order."""
        return dict(self._seconds)

    @property
    def total(self) -> float:
        """Sum over all stages."""
        return sum(self._seconds.values())
