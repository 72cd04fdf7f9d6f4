"""Rate and selectivity fluctuation profiles, and the Workload bundle.

A :class:`Workload` is the simulator's ground truth: the *actual*
time-varying input rate and operator selectivities, which the monitor
samples and the strategies react to.  Profiles compose the paper's
experimental knobs:

* input-rate scaling (Figure 15a's 50%–400% fluctuation ratios),
* periodic high/low alternation (Figure 16b's fluctuation periods),
* step schedules (Figure 15b's 50%→100%→200% ramp), and
* selectivity regime switches (Example 1's bullish/bearish flips) and
  bounded random walks, both confined to the parameter space implied by
  the uncertainty levels ("fluctuations known a priori", §2.2).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.query.model import Query
from repro.query.statistics import (
    UNCERTAINTY_UNIT_STEP,
    StatPoint,
    rate_param,
)
from repro.util.rng import SeedSequenceFactory, derive_rng
from repro.util.validation import ensure_positive

__all__ = [
    "RateProfile",
    "ConstantRate",
    "PeriodicRate",
    "StepRate",
    "SelectivityProfile",
    "ConstantSelectivity",
    "RegimeSwitchSelectivity",
    "RandomWalkSelectivity",
    "Workload",
]


# ----------------------------------------------------------------------
# Rate profiles
# ----------------------------------------------------------------------

class RateProfile(ABC):
    """Time-varying multiplier applied to the workload's base rate."""

    @abstractmethod
    def multiplier(self, time: float) -> float:
        """Rate multiplier (> 0) at simulated ``time`` seconds."""


@dataclass(frozen=True)
class ConstantRate(RateProfile):
    """A fixed multiplier — e.g. 4.0 for the 400% fluctuation ratio."""

    ratio: float = 1.0

    def __post_init__(self) -> None:
        ensure_positive(self.ratio, "ratio")

    def multiplier(self, time: float) -> float:
        return self.ratio


@dataclass(frozen=True)
class PeriodicRate(RateProfile):
    """Alternating high/low rate with equal interval lengths (§6.5).

    "The input stream fluctuation period is simulated by alternating
    the input rate of each input stream periodically between a high
    rate and a low rate" — ``period`` is the length of the high (and of
    the low) interval in seconds.
    """

    high: float = 2.0
    low: float = 0.5
    period: float = 10.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        ensure_positive(self.high, "high")
        ensure_positive(self.low, "low")
        ensure_positive(self.period, "period")

    def multiplier(self, time: float) -> float:
        cycle_position = ((time + self.phase) / self.period) % 2.0
        return self.high if cycle_position < 1.0 else self.low


@dataclass(frozen=True)
class StepRate(RateProfile):
    """Piecewise-constant schedule: ``[(start_time, ratio), ...]``.

    Figure 15b's ramp is ``StepRate(((0, 0.5), (1200, 1.0), (2400, 2.0)))``.
    Steps must be time-sorted; the first must start at 0.
    """

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("StepRate needs at least one step")
        times = [t for t, _ in self.steps]
        if times != sorted(times):
            raise ValueError(f"step times must be ascending, got {times}")
        if times[0] != 0:
            raise ValueError(f"first step must start at t=0, got {times[0]}")
        for _, ratio in self.steps:
            ensure_positive(ratio, "step ratio")

    def multiplier(self, time: float) -> float:
        current = self.steps[0][1]
        for start, ratio in self.steps:
            if time >= start:
                current = ratio
            else:
                break
        return current


# ----------------------------------------------------------------------
# Selectivity profiles
# ----------------------------------------------------------------------

class SelectivityProfile(ABC):
    """Time-varying true selectivity per operator."""

    @abstractmethod
    def value(self, op_id: int, time: float, base: float) -> float:
        """True selectivity of ``op_id`` at ``time`` given its estimate."""


@dataclass(frozen=True)
class ConstantSelectivity(SelectivityProfile):
    """Selectivities pinned at their estimates (no fluctuation)."""

    def value(self, op_id: int, time: float, base: float) -> float:
        return base


class RegimeSwitchSelectivity(SelectivityProfile):
    """Example 1's bullish/bearish flips: anti-phase sinusoidal drift.

    Each operator's selectivity oscillates around its estimate with
    relative amplitude ``0.1 × level`` (so the truth stays inside the
    Algorithm 1 parameter space).  Alternating operators move in
    anti-phase: when "bullish" operators see fewer matches, "bearish"
    ones see more — which *inverts* the optimal ordering, the scenario
    motivating multiple robust logical plans.

    ``mode="square"`` switches regimes abruptly instead of smoothly.

    Each fluctuating operator's ``(amplitude, phase)`` is fixed at
    construction; :meth:`value` evaluates the wave with the same
    floating-point operations, in the same order, as computing both on
    every call.
    """

    def __init__(
        self,
        levels: Mapping[int, int],
        *,
        period: float = 60.0,
        mode: str = "sine",
        phases: Mapping[int, float] | None = None,
    ) -> None:
        ensure_positive(period, "period")
        if mode not in ("sine", "square"):
            raise ValueError(f"mode must be 'sine' or 'square', got {mode!r}")
        self._period = period
        self._square = mode == "square"
        if phases is None:
            # Anti-phase by operator parity: evens peak when odds trough.
            phases = {
                op_id: 0.0 if i % 2 == 0 else math.pi
                for i, op_id in enumerate(sorted(levels))
            }
        #: op id → (amplitude, phase), for operators that fluctuate.
        self._waves = {
            op_id: (UNCERTAINTY_UNIT_STEP * level, phases.get(op_id, 0.0))
            for op_id, level in levels.items()
            if level != 0
        }

    def value(self, op_id: int, time: float, base: float) -> float:
        wave_params = self._waves.get(op_id)
        if wave_params is None:
            return base
        amplitude, phase = wave_params
        wave = math.sin(2.0 * math.pi * time / self._period + phase)
        if self._square:
            wave = 1.0 if wave >= 0 else -1.0
        return base * (1.0 + amplitude * wave)


class RandomWalkSelectivity(SelectivityProfile):
    """Bounded random walk inside the parameter space.

    Selectivities drift by small seeded steps, reflecting at the
    Algorithm 1 bounds.  The walk is evaluated lazily on a fixed time
    grid so ``value`` is deterministic and O(1) amortized per call.

    Each operator draws from its own child generator (spawned once, in
    sorted operator order, at construction), so an operator's walk
    depends only on the seed — never on the order or frequency with
    which other operators are queried.
    """

    def __init__(
        self,
        levels: Mapping[int, int],
        *,
        step_fraction: float = 0.02,
        grid_seconds: float = 1.0,
        seed: int | np.random.Generator | None = 23,
    ) -> None:
        ensure_positive(grid_seconds, "grid_seconds")
        ensure_positive(step_fraction, "step_fraction")
        self._levels = dict(levels)
        self._step = step_fraction
        self._grid = grid_seconds
        if isinstance(seed, np.random.Generator):
            # Derive per-operator seeds from the caller's stream once,
            # up front, instead of sharing the generator across walks.
            self._rngs = {
                op: derive_rng(int(seed.integers(2**63)))
                for op in sorted(self._levels)
            }
        else:
            factory = SeedSequenceFactory(seed)
            self._rngs = {op: factory.child() for op in sorted(self._levels)}
        self._history: dict[int, list[float]] = {op: [0.0] for op in self._levels}

    def _position_at(self, op_id: int, time: float) -> float:
        history = self._history[op_id]
        needed = int(time // self._grid) + 1
        while len(history) <= needed:
            position = history[-1] + float(self._rngs[op_id].normal(0.0, self._step))
            # Reflect into [-1, 1].
            while position > 1.0 or position < -1.0:
                if position > 1.0:
                    position = 2.0 - position
                if position < -1.0:
                    position = -2.0 - position
            history.append(position)
        return history[needed]

    def value(self, op_id: int, time: float, base: float) -> float:
        level = self._levels.get(op_id, 0)
        if level == 0:
            return base
        amplitude = UNCERTAINTY_UNIT_STEP * level
        return base * (1.0 + amplitude * self._position_at(op_id, time))


# ----------------------------------------------------------------------
# Workload bundle
# ----------------------------------------------------------------------

class Workload:
    """Ground-truth statistics for one simulated run.

    Combines a base rate with a :class:`RateProfile` and a
    :class:`SelectivityProfile`; implements the monitor's
    :class:`~repro.engine.monitor.GroundTruth` protocol.
    """

    def __init__(
        self,
        query: Query,
        *,
        base_rate: float | None = None,
        rate_profile: RateProfile | None = None,
        selectivity_profile: SelectivityProfile | None = None,
    ) -> None:
        self._query = query
        self._base_rate = base_rate if base_rate is not None else query.driving_rate
        ensure_positive(self._base_rate, "base_rate")
        self._rate_profile = rate_profile or ConstantRate()
        self._sel_profile = selectivity_profile or ConstantSelectivity()
        self._bases = {op.op_id: op.selectivity for op in query.operators}

    @property
    def query(self) -> Query:
        """The query this workload drives."""
        return self._query

    def rate(self, time: float) -> float:
        """True driving input rate at ``time`` (tuples/second)."""
        return self._base_rate * self._rate_profile.multiplier(time)

    def selectivity(self, op_id: int, time: float) -> float:
        """True selectivity of ``op_id`` at ``time``."""
        return self._sel_profile.value(op_id, time, self._bases[op_id])

    def stat_point(self, time: float) -> StatPoint:
        """The exact statistics point at ``time`` (oracle view)."""
        values = {rate_param(): self.rate(time)}
        for op in self._query.operators:
            values[op.selectivity_param] = self.selectivity(op.op_id, time)
        return StatPoint(values)

    def scaled(self, ratio: float) -> "Workload":
        """A copy with the base rate scaled by ``ratio`` (Figure 15a)."""
        ensure_positive(ratio, "ratio")
        return Workload(
            self._query,
            base_rate=self._base_rate * ratio,
            rate_profile=self._rate_profile,
            selectivity_profile=self._sel_profile,
        )
