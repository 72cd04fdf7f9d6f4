"""Runtime statistics monitor (§3 "Statistic monitor").

Each machine in the paper's DSPS periodically samples operator
selectivities and stream rates and ships them to the executor.  The
simulated monitor samples the workload's ground-truth statistics with
multiplicative observation noise and smooths them with an exponential
moving average — so strategies see realistic, slightly stale estimates
rather than the simulator's exact internals.

The noise is drawn from the monitor's generator in chunks of
:data:`NOISE_CHUNK` normals and consumed in order.  NumPy's
``Generator.normal`` fills an array with the same draws, in the same
order, as that many scalar calls, so the observations are bit for bit
those of one scalar draw per observation.

Fault injection can *suspend* the monitor (sample dropout): while
suspended, sampling rounds are counted as dropped and the last
estimates stay frozen, so strategies decide on increasingly stale
statistics — the real-world failure mode of a lossy telemetry path.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.query.model import Query
from repro.query.statistics import StatPoint, rate_param
from repro.util.rng import derive_rng
from repro.util.validation import (
    ensure_finite,
    ensure_in_range,
    ensure_non_negative,
    ensure_positive,
)

__all__ = ["GroundTruth", "StatisticsMonitor", "NOISE_CHUNK"]

#: Noise factors drawn per refill of the monitor's buffer.
NOISE_CHUNK = 4096


class GroundTruth(Protocol):
    """What the monitor observes: time-varying true statistics."""

    def rate(self, time: float) -> float:
        """True driving input rate (tuples/second) at ``time``."""
        ...

    def selectivity(self, op_id: int, time: float) -> float:
        """True selectivity of operator ``op_id`` at ``time``."""
        ...


class StatisticsMonitor:
    """Noisy, smoothed view of the workload's true statistics.

    Parameters
    ----------
    query:
        Supplies the operator ids to monitor.
    truth:
        The ground-truth statistics source (normally the workload).
    noise:
        Multiplicative observation noise: each sample is scaled by
        ``1 + Normal(0, noise)``.  Zero for an oracle monitor.
    smoothing:
        EWMA coefficient on the *new* sample (1.0 = no memory).
    seed:
        Noise reproducibility.  A generator passed in is drawn from
        :data:`NOISE_CHUNK` normals at a time, ahead of use, so it
        should not be shared with code that draws in between.
    """

    def __init__(
        self,
        query: Query,
        truth: GroundTruth,
        *,
        noise: float = 0.05,
        smoothing: float = 0.5,
        seed: int | np.random.Generator | None = 11,
    ) -> None:
        ensure_non_negative(ensure_finite(noise, "noise"), "noise")
        ensure_in_range(smoothing, "smoothing", 0.0, 1.0, inclusive=True)
        ensure_positive(smoothing, "smoothing")
        self._truth = truth
        self._noise = noise
        self._smoothing = smoothing
        self._rng = derive_rng(seed)
        self._op_ids = [op.op_id for op in query.operators]
        self._names = [rate_param()] + [op.selectivity_param for op in query.operators]
        #: ``1 + Normal(0, noise)`` factors drawn ahead; the next unused
        #: one is ``_factors[_next_factor]``.
        self._factors: list[float] = []
        self._next_factor = 0
        self._estimates: dict[str, float] = {}
        self._point: StatPoint | None = None
        self._samples = 0
        self._suspended = False
        self._samples_dropped = 0

    @property
    def samples_taken(self) -> int:
        """Number of sampling rounds performed."""
        return self._samples

    @property
    def samples_dropped(self) -> int:
        """Sampling rounds skipped while suspended (fault injection)."""
        return self._samples_dropped

    @property
    def suspended(self) -> bool:
        """True while a monitor-dropout fault is active."""
        return self._suspended

    def suspend(self) -> None:
        """Stop updating estimates; subsequent samples are dropped."""
        self._suspended = True

    def resume(self) -> None:
        """Resume normal sampling after a dropout."""
        self._suspended = False

    def _noise_factors(self, count: int) -> list[float]:
        """The next ``count`` noise factors of the stream, in order."""
        start = self._next_factor
        if start + count > len(self._factors):
            drawn = 1.0 + self._rng.normal(0.0, self._noise, NOISE_CHUNK)
            self._factors = self._factors[start:] + drawn.tolist()
            start = 0
        self._next_factor = start + count
        return self._factors[start : start + count]

    def sample(self, time: float) -> StatPoint:
        """Take one sampling round at ``time`` and return the estimates.

        While suspended (monitor-dropout fault), the round is counted
        as dropped and the previous estimates are returned unchanged —
        except for the very first round, which always primes the
        estimates so strategies have *something* to decide on.
        """
        if self._suspended and self._point is not None:
            self._samples_dropped += 1
            return self._point
        truth = self._truth
        values = [truth.rate(time)]
        values += [truth.selectivity(op_id, time) for op_id in self._op_ids]
        if self._noise > 0:
            factors = self._noise_factors(len(values))
            values = [max(v * f, 1e-9) for v, f in zip(values, factors)]
        estimates = self._estimates
        if self._point is None:
            estimates.update(zip(self._names, values))
        else:
            alpha = self._smoothing
            for name, value in zip(self._names, values):
                estimates[name] = alpha * value + (1 - alpha) * estimates[name]
        self._samples += 1
        self._point = StatPoint(estimates)
        return self._point

    def current(self) -> StatPoint:
        """Latest smoothed estimates; raises before the first sample.

        One :class:`StatPoint` is built per sampling round and handed to
        every caller until the next round.
        """
        if self._point is None:
            raise RuntimeError("monitor has no samples yet; call sample() first")
        return self._point
