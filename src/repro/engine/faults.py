"""Deterministic fault injection for the simulated DSPS.

The paper's robustness story is told under *statistics drift*; real
stream processors also face *infrastructure failure* — machines crash
and come back, CPUs get throttled by co-tenants, links degrade or
partition, and the statistics monitor itself loses samples.  This
module defines a :class:`FaultSchedule`: an immutable, time-ordered
list of :class:`FaultEvent` rows that :class:`~repro.engine.system.
StreamSimulator` replays during a run.

Fault semantics (implemented by the simulator and
:class:`~repro.engine.node.SimNode`):

``crash`` / ``recover``
    The node goes offline; its queued work is lost (batches in service
    there are *dropped*), and new stage submissions stall until the
    node recovers or the operator migrates away.
``slowdown``
    The node's effective capacity is scaled by ``factor`` (restore by
    scheduling a second ``slowdown`` with ``factor=1.0``).
``degrade`` / ``partition`` / ``heal``
    Network degradation multiplies inter-node transfer time by
    ``factor``; a partition *drops* any batch attempting a cross-node
    hop until ``heal``.
``monitor_dropout`` / ``monitor_restore``
    The statistics monitor stops sampling; strategies keep seeing the
    last (increasingly stale) estimates.

Everything is deterministic: a schedule is plain data, and
:meth:`FaultSchedule.random` derives all randomness from the seeded
RNG plumbing in :mod:`repro.util.rng`, so a chaos run is exactly
reproducible from ``(seed, schedule)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.util.rng import derive_rng
from repro.util.validation import (
    ensure_finite,
    ensure_non_negative,
    ensure_positive,
)

__all__ = [
    "FAULT_KINDS",
    "FaultError",
    "FaultEvent",
    "FaultSchedule",
    "monitor_dropout",
    "network_degradation",
    "network_partition",
    "node_crash",
    "node_slowdown",
]


class FaultError(Exception):
    """The one exception an ``on_fault`` hook may raise.

    A strategy's fault hook runs in the middle of the simulator's fault
    accounting; an arbitrary exception escaping it unwinds the event
    loop and turns a survived fault into a dead run.  Hooks that cannot
    degrade gracefully wrap the cause in ``FaultError`` — the simulator
    catches exactly this type, counts it in
    ``SimulationReport.fault_hook_errors``, and keeps the run alive.
    Deliberately a direct ``Exception`` subclass (not ``RuntimeError``)
    so a strategy's own ``except RuntimeError`` cleanup can never
    swallow the sanctioned signal by accident.  A hypothesis test drives
    every exported strategy's hook through arbitrary fault sequences to
    hold the contract (``tests/engine/test_isolation.py``).
    """

#: Every fault kind the simulator understands.
FAULT_KINDS = frozenset(
    {
        "crash",
        "recover",
        "slowdown",
        "degrade",
        "partition",
        "heal",
        "monitor_dropout",
        "monitor_restore",
    }
)

#: Kinds that target one node (``FaultEvent.node`` is required).
NODE_KINDS = frozenset({"crash", "recover", "slowdown"})

#: Kinds that parameterize a severity (``FaultEvent.factor`` matters).
FACTOR_KINDS = frozenset({"slowdown", "degrade"})


@dataclass(frozen=True)
class FaultEvent:
    """One timed infrastructure event.

    Attributes
    ----------
    time:
        Simulated second at which the event fires.
    kind:
        One of :data:`FAULT_KINDS`.
    node:
        Target node index, required for the node kinds
        (``crash`` / ``recover`` / ``slowdown``).
    factor:
        Severity for ``slowdown`` (capacity multiplier, ``1.0``
        restores full speed) and ``degrade`` (transfer-time
        multiplier, ``1.0`` heals); ignored elsewhere.
    """

    time: float
    kind: str
    node: int | None = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        ensure_non_negative(self.time, "fault time")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.kind in NODE_KINDS:
            if self.node is None or self.node < 0:
                raise ValueError(f"{self.kind!r} fault requires a node index >= 0")
        ensure_positive(ensure_finite(self.factor, "factor"), "factor")

    def describe(self) -> str:
        """Human-readable one-liner (traces and CLI output)."""
        parts = [f"{self.kind}@{self.time:g}s"]
        if self.node is not None:
            parts.append(f"node={self.node}")
        if self.kind in FACTOR_KINDS:
            parts.append(f"factor={self.factor:g}")
        return " ".join(parts)


# ----------------------------------------------------------------------
# Paired-event builders (fault + its reversal)
# ----------------------------------------------------------------------


def node_crash(time: float, node: int, duration: float) -> tuple[FaultEvent, ...]:
    """A node failing at ``time`` and rejoining after ``duration``."""
    ensure_finite(time, "fault time")
    ensure_positive(duration, "duration")
    return (
        FaultEvent(time=time, kind="crash", node=node),
        FaultEvent(time=time + duration, kind="recover", node=node),
    )


def node_slowdown(
    time: float, node: int, factor: float, duration: float
) -> tuple[FaultEvent, ...]:
    """A node running at ``factor`` of its capacity for ``duration``."""
    ensure_finite(time, "fault time")
    ensure_positive(duration, "duration")
    return (
        FaultEvent(time=time, kind="slowdown", node=node, factor=factor),
        FaultEvent(time=time + duration, kind="slowdown", node=node, factor=1.0),
    )


def network_degradation(
    time: float, factor: float, duration: float
) -> tuple[FaultEvent, ...]:
    """Inter-node transfers slowed ``factor``× for ``duration``."""
    ensure_finite(time, "fault time")
    ensure_positive(duration, "duration")
    return (
        FaultEvent(time=time, kind="degrade", factor=factor),
        FaultEvent(time=time + duration, kind="degrade", factor=1.0),
    )


def network_partition(time: float, duration: float) -> tuple[FaultEvent, ...]:
    """Cross-node hops dropped for ``duration`` seconds."""
    ensure_finite(time, "fault time")
    ensure_positive(duration, "duration")
    return (
        FaultEvent(time=time, kind="partition"),
        FaultEvent(time=time + duration, kind="heal"),
    )


def monitor_dropout(time: float, duration: float) -> tuple[FaultEvent, ...]:
    """Statistics sampling suspended for ``duration`` seconds."""
    ensure_finite(time, "fault time")
    ensure_positive(duration, "duration")
    return (
        FaultEvent(time=time, kind="monitor_dropout"),
        FaultEvent(time=time + duration, kind="monitor_restore"),
    )


class FaultSchedule:
    """An immutable, time-ordered fault plan for one simulated run.

    Construct it from explicit events, from the paired builders above,
    from a seeded random generator (:meth:`random`), or from the CLI
    spec grammar (:meth:`parse`).  Schedules are stateless and can be
    shared across simulators — :func:`~repro.runtime.comparison.
    compare_strategies` replays one schedule against every strategy so
    robustness-under-failure is compared on identical chaos.
    """

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        self._events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.time)
        )

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """All events, sorted by time (stable for simultaneous events)."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self._events == other._events

    def __repr__(self) -> str:
        return f"FaultSchedule({len(self._events)} events)"

    @property
    def needs_network(self) -> bool:
        """True when any event assumes a network model (``degrade``)."""
        return any(event.kind == "degrade" for event in self._events)

    def validate_for(self, n_nodes: int) -> None:
        """Raise if any node-targeted event is outside ``[0, n_nodes)``."""
        for event in self._events:
            if event.node is not None and event.node >= n_nodes:
                raise ValueError(
                    f"fault {event.describe()} targets node {event.node} "
                    f"but the cluster has {n_nodes} nodes"
                )

    def describe(self) -> str:
        """Multi-line human-readable listing."""
        return "\n".join(event.describe() for event in self._events)

    # ------------------------------------------------------------------
    # Seeded chaos generation
    # ------------------------------------------------------------------

    @classmethod
    def random(
        cls,
        n_nodes: int,
        duration: float,
        seed: int | np.random.Generator | None,
        *,
        crashes: int = 1,
        slowdowns: int = 1,
        partitions: int = 0,
        dropouts: int = 1,
        degradations: int = 0,
        min_outage_fraction: float = 0.05,
        max_outage_fraction: float = 0.2,
    ) -> "FaultSchedule":
        """A reproducible random chaos schedule over ``[0, duration]``.

        All draws come from :func:`repro.util.rng.derive_rng`, so the
        same ``seed`` always yields the same schedule.  Fault start
        times land in the first 70% of the run so their recovery (and
        the post-recovery drain) stays observable within the horizon.
        """
        ensure_positive(n_nodes, "n_nodes")
        ensure_positive(duration, "duration")
        counts = {
            "crashes": crashes,
            "slowdowns": slowdowns,
            "partitions": partitions,
            "dropouts": dropouts,
            "degradations": degradations,
        }
        for name, count in counts.items():
            ensure_non_negative(count, name)
        if not 0 < min_outage_fraction <= max_outage_fraction < 1:
            raise ValueError(
                "need 0 < min_outage_fraction <= max_outage_fraction < 1, got "
                f"{min_outage_fraction}..{max_outage_fraction}"
            )
        rng = derive_rng(seed)

        def start() -> float:
            return float(rng.uniform(0.05, 0.7)) * duration

        def outage() -> float:
            return float(
                rng.uniform(min_outage_fraction, max_outage_fraction) * duration
            )

        events: list[FaultEvent] = []
        for _ in range(crashes):
            events.extend(node_crash(start(), int(rng.integers(n_nodes)), outage()))
        for _ in range(slowdowns):
            factor = float(rng.uniform(0.2, 0.8))
            events.extend(
                node_slowdown(start(), int(rng.integers(n_nodes)), factor, outage())
            )
        for _ in range(partitions):
            events.extend(network_partition(start(), outage()))
        for _ in range(dropouts):
            events.extend(monitor_dropout(start(), outage()))
        for _ in range(degradations):
            factor = float(rng.uniform(2.0, 10.0))
            events.extend(network_degradation(start(), factor, outage()))
        return cls(events)

    # ------------------------------------------------------------------
    # CLI spec grammar
    # ------------------------------------------------------------------

    @classmethod
    def parse(
        cls,
        spec: str,
        *,
        n_nodes: int,
        duration: float,
        seed: int | None = None,
    ) -> "FaultSchedule":
        """Parse a ``--faults`` spec string into a schedule.

        Two forms:

        ``random[:key=value...]``
            Seeded chaos via :meth:`random`; keys are its counters,
            e.g. ``random:crashes=2:partitions=1``.

        ``entry[,entry...]`` where entry is ``kind@time[:key=value...]``
            Explicit events.  ``for=<seconds>`` expands a fault into
            its fault/reversal pair::

                crash@60:node=1:for=30,partition@120:for=10
                slowdown@40:node=0:factor=0.5:for=60,dropout@20:for=100

            One-way kinds (``recover``, ``heal``, ``monitor_restore``)
            are accepted for hand-built asymmetric schedules.
        """
        spec = spec.strip()
        if not spec:
            raise ValueError("empty --faults spec")
        if spec == "random" or spec.startswith("random:"):
            count_keys = ("crashes", "slowdowns", "partitions", "dropouts", "degradations")
            fraction_keys = ("min_outage_fraction", "max_outage_fraction")
            kwargs: dict[str, float] = {}
            for token in spec.split(":")[1:]:
                key, _, value = token.partition("=")
                if not value:
                    raise ValueError(f"bad random-spec token {token!r}; use key=value")
                try:
                    if key in count_keys:
                        kwargs[key] = int(value)
                    elif key in fraction_keys:
                        kwargs[key] = float(value)
                    else:
                        raise ValueError(
                            f"unknown random-spec key {key!r}; expected one of "
                            f"{sorted(count_keys + fraction_keys)}"
                        )
                except ValueError as exc:
                    if "random-spec" in str(exc):
                        raise
                    raise ValueError(
                        f"bad random-spec value {value!r} for {key!r}"
                    ) from exc
            return cls.random(n_nodes, duration, seed, **kwargs)

        events: list[FaultEvent] = []
        for entry in spec.split(","):
            events.extend(cls._parse_entry(entry.strip()))
        schedule = cls(events)
        schedule.validate_for(n_nodes)
        return schedule

    @staticmethod
    def _parse_entry(entry: str) -> tuple[FaultEvent, ...]:
        kind, at, rest = entry.partition("@")
        if not at:
            raise ValueError(f"bad fault entry {entry!r}; expected kind@time[:...]")
        fields = rest.split(":")
        # NaN keeps its ">= 0" message; +inf would schedule nothing.
        time = ensure_finite(
            ensure_non_negative(float(fields[0]), "fault time"), "fault time"
        )
        params: dict[str, float] = {}
        for token in fields[1:]:
            key, eq, value = token.partition("=")
            if not eq:
                raise ValueError(f"bad fault option {token!r}; use key=value")
            params[key] = float(value)
        node_value = params.pop("node", None)
        node = None
        if node_value is not None:
            if not (node_value >= 0 and node_value.is_integer()):
                raise ValueError(
                    f"node must be a non-negative integer, got {node_value!r} "
                    f"in {entry!r}"
                )
            node = int(node_value)
        factor = params.pop("factor", 1.0)
        hold = params.pop("for", None)
        if params:
            raise ValueError(f"unknown fault options {sorted(params)} in {entry!r}")

        alias = {"dropout": "monitor_dropout", "restore": "monitor_restore"}
        kind = alias.get(kind, kind)
        if hold is None:
            return (FaultEvent(time=time, kind=kind, node=node, factor=factor),)
        if kind == "crash":
            return node_crash(time, _require_node(node, entry), hold)
        if kind == "slowdown":
            return node_slowdown(time, _require_node(node, entry), factor, hold)
        if kind == "degrade":
            return network_degradation(time, factor, hold)
        if kind == "partition":
            return network_partition(time, hold)
        if kind == "monitor_dropout":
            return monitor_dropout(time, hold)
        raise ValueError(f"'for=' makes no sense on one-way fault {kind!r}")


def _require_node(node: int | None, entry: str) -> int:
    if node is None:
        raise ValueError(f"fault entry {entry!r} requires node=<index>")
    return node
