"""Per-run measurements: latency, throughput timeline, overheads.

The §6.5 experiments report average tuple processing time (Figures 15a,
16a, 16b), cumulative tuples produced over time (Figure 15b), and the
runtime overhead beyond query processing.  :class:`SimulationReport`
collects exactly those, per batch, as the simulator runs — plus, when
fault injection is active, the failure ledger (dropped batches, node
downtime, partition windows, monitor dropouts) that the chaos benches
compare head-to-head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["SimulationReport"]


@dataclass
class SimulationReport:
    """Mutable measurement ledger filled in by the simulator.

    Latency entries are weighted by each batch's *input* tuples (the
    tuples that were processed), matching the paper's "average tuple
    processing time"; the throughput timeline counts *output* tuples
    (Figure 15b's "total number of tuples produced").
    """

    duration: float
    batches_injected: int = 0
    batches_completed: int = 0
    tuples_in: float = 0.0
    tuples_out: float = 0.0
    overhead_seconds: float = 0.0
    network_seconds: float = 0.0
    migrations: int = 0
    migration_stall_seconds: float = 0.0
    plan_switches: int = 0
    node_busy_seconds: list[float] = field(default_factory=list)
    processing_seconds: float = 0.0
    # -- failure accounting (fault injection) --------------------------
    #: Batches killed by faults (crash mid-service, partition drops).
    batches_dropped: int = 0
    #: Expected tuples lost with those batches (at their current stage).
    tuples_dropped: float = 0.0
    #: Batches neither completed nor dropped at the horizon (stalled or
    #: still queued); set at the end of the run from the live ledger.
    batches_in_flight: int = 0
    #: Stage submissions parked because the target node was offline.
    batch_stalls: int = 0
    #: Fault events applied during the run.
    fault_events: int = 0
    #: Node crash events applied (recoveries are not counted separately).
    node_crashes: int = 0
    #: Total node-seconds spent offline within the run.
    node_downtime_seconds: float = 0.0
    #: Seconds the network was partitioned within the run.
    partition_seconds: float = 0.0
    #: Monitor sampling rounds lost to dropout faults.
    monitor_samples_dropped: int = 0
    #: ``on_fault`` hooks that raised :class:`~repro.engine.faults.
    #: FaultError` — the strategy failed to degrade, but the run (and
    #: this ledger) survived.
    fault_hook_errors: int = 0
    #: (completion time, input-tuple weight, latency seconds, output
    #: tuples) per batch.
    _completions: list[tuple[float, float, float, float]] = field(
        default_factory=list
    )

    def record_batch(
        self,
        created_at: float,
        completed_at: float,
        input_tuples: float,
        output_tuples: float,
    ) -> None:
        """Record one batch finishing its plan end-to-end."""
        if completed_at < created_at:
            raise ValueError("batch completed before it was created")
        self.batches_completed += 1
        self.tuples_out += output_tuples
        self._completions.append(
            (completed_at, input_tuples, completed_at - created_at, output_tuples)
        )

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    @property
    def avg_tuple_latency_ms(self) -> float:
        """Tuple-weighted average end-to-end latency in milliseconds.

        NaN when nothing completed — an honest signal of a total stall
        rather than a misleading zero.
        """
        total_weight = sum(w for _, w, _, _ in self._completions)
        if total_weight == 0:
            return math.nan
        weighted = sum(w * latency for _, w, latency, _ in self._completions)
        return 1000.0 * weighted / total_weight

    def latency_percentile_ms(self, percentile: float) -> float:
        """Latency percentile (per batch, unweighted) in milliseconds."""
        if not 0 <= percentile <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {percentile}")
        if not self._completions:
            return math.nan
        latencies = sorted(latency for _, _, latency, _ in self._completions)
        rank = (percentile / 100.0) * (len(latencies) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        frac = rank - lo
        return 1000.0 * (latencies[lo] * (1 - frac) + latencies[hi] * frac)

    def produced_timeline(
        self, interval_seconds: float = 60.0, *, weights: str = "output"
    ) -> list[tuple[float, float]]:
        """Cumulative tuples produced by each interval boundary.

        Returns ``[(t, cumulative_by_t), ...]`` covering the run — the
        Figure 15b series.  ``weights="output"`` counts result tuples;
        ``weights="input"`` counts processed source tuples.
        """
        if interval_seconds <= 0:
            raise ValueError(f"interval must be > 0, got {interval_seconds}")
        if weights not in ("output", "input"):
            raise ValueError(f"weights must be 'output' or 'input', got {weights!r}")
        # Each series keeps its own sort key — (t, output) and
        # (t, input, latency) — so tied completions sum in a fixed order.
        if weights == "output":
            events = sorted((t, out) for t, _, _, out in self._completions)
        else:
            events = [(t, w) for t, w, _, _ in sorted(self._completions)]
        series: list[tuple[float, float]] = []
        cumulative = 0.0
        i = 0
        boundary = interval_seconds
        while boundary <= self.duration + 1e-9:
            while i < len(events) and events[i][0] <= boundary:
                cumulative += events[i][1]
                i += 1
            series.append((boundary, cumulative))
            boundary += interval_seconds
        return series

    @property
    def overhead_fraction(self) -> float:
        """Runtime overhead relative to query-processing time (§6.5).

        Overhead covers plan classification (RLD) and migration stalls
        (DYN); ROD has none.  NaN when no processing happened.
        """
        if self.processing_seconds <= 0:
            return math.nan
        return (
            self.overhead_seconds + self.migration_stall_seconds
        ) / self.processing_seconds

    def utilization(self) -> list[float]:
        """Per-node busy fraction over the run's duration."""
        if self.duration <= 0:
            return []
        return [busy / self.duration for busy in self.node_busy_seconds]

    # ------------------------------------------------------------------
    # Failure metrics
    # ------------------------------------------------------------------

    @property
    def drop_fraction(self) -> float:
        """Share of injected batches lost to faults (0 when none ran)."""
        if self.batches_injected == 0:
            return 0.0
        return self.batches_dropped / self.batches_injected

    @property
    def availability(self) -> float:
        """Fraction of node-seconds the cluster was online.

        1.0 for a fault-free run; ``1 - downtime/(nodes × duration)``
        otherwise.  NaN before the run finishes (node count unknown).
        """
        n_nodes = len(self.node_busy_seconds)
        if n_nodes == 0 or self.duration <= 0:
            return math.nan
        return 1.0 - self.node_downtime_seconds / (n_nodes * self.duration)

    def conservation_holds(self) -> bool:
        """Batch accounting identity: injected = completed + dropped + in flight."""
        return (
            self.batches_injected
            == self.batches_completed + self.batches_dropped + self.batches_in_flight
        )

    def to_dict(self) -> dict[str, object]:
        """Summary as JSON-compatible primitives (dashboards, exports).

        Contains the headline aggregates, not the per-batch ledgers;
        use :meth:`produced_timeline` for series data.
        """
        avg = self.avg_tuple_latency_ms
        p95 = self.latency_percentile_ms(95)
        overhead = self.overhead_fraction
        availability = self.availability
        return {
            "duration": self.duration,
            "batches_injected": self.batches_injected,
            "batches_completed": self.batches_completed,
            "tuples_in": self.tuples_in,
            "tuples_out": self.tuples_out,
            "avg_tuple_latency_ms": None if math.isnan(avg) else avg,
            "p95_latency_ms": None if math.isnan(p95) else p95,
            "overhead_seconds": self.overhead_seconds,
            "network_seconds": self.network_seconds,
            "migrations": self.migrations,
            "migration_stall_seconds": self.migration_stall_seconds,
            "plan_switches": self.plan_switches,
            "processing_seconds": self.processing_seconds,
            "overhead_fraction": None if math.isnan(overhead) else overhead,
            "node_utilization": self.utilization(),
            "batches_dropped": self.batches_dropped,
            "tuples_dropped": self.tuples_dropped,
            "batches_in_flight": self.batches_in_flight,
            "batch_stalls": self.batch_stalls,
            "fault_events": self.fault_events,
            "node_crashes": self.node_crashes,
            "node_downtime_seconds": self.node_downtime_seconds,
            "partition_seconds": self.partition_seconds,
            "monitor_samples_dropped": self.monitor_samples_dropped,
            "fault_hook_errors": self.fault_hook_errors,
            "drop_fraction": self.drop_fraction,
            "availability": None if math.isnan(availability) else availability,
        }
