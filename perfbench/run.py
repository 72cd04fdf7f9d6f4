"""End-to-end benchmark of ``repro compile`` and ``repro simulate``.

Run from the repository root::

    python3 perfbench/run.py --workload compile-q1 --seed 1 --seconds 30 --trace 0

``perfbench/README.md`` describes the workloads and the metrics.  With
``--trace 0`` the operations run untraced and the end-to-end metrics
are reported; with ``--trace 1`` untraced operations alternate with
their traced decomposition and the per-layer metrics are reported.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

All operations run serially in this one process.  Set-up time is also
measured in a few fresh interpreters, started one after another,
because imports cannot be repeated within a process.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("compile-q1", "compile-join12", "simulate-q1")

#: End-to-end metrics, reported with ``--trace 0``: name → unit.
END_TO_END = {"setup_s": "s", "op_cost_ref": "ref", "peak_rss_mb": "MB"}

#: Per-layer metrics, reported with ``--trace 1``: name → unit.  A
#: layer the workload never enters reports 0.
PER_LAYER = {
    "core.occurrence.cell_probability_calls": "count",
    "core.occurrence.cell_probability_ms": "ms",
    "core.logical.plans": "count",
    "core.logical.cells_scanned": "count",
    "core.logical.plan_cells_ms": "ms",
    "core.logical.plan_weights_ms": "ms",
    "core.logical.worst_case_loads_ms": "ms",
    "core.logical.expected_loads_ms": "ms",
    "query.optimizer.calls": "count",
    "query.optimizer.ms": "ms",
    "query.optimizer.us_per_call": "us",
    "core.partitioning.erp_ms": "ms",
    "core.partitioning.self_ms": "ms",
    "core.partitioning.regions": "count",
    "core.partitioning.weight_computations": "count",
    "core.physical.load_table_ms": "ms",
    "core.optprune.ms": "ms",
    "core.optprune.nodes_explored": "count",
    "core.optprune.supported_plans": "count",
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "engine.batches": "count",
    "engine.run_s.rod": "s",
    "engine.run_s.dyn": "s",
    "engine.run_s.rld": "s",
    "runtime.rld_runtime.table_hits": "count",
    "runtime.rld_runtime.table_misses": "count",
    "runtime.rld_runtime.hit_ratio": "fraction",
    "runtime.rld_runtime.hit_us": "us",
    "runtime.rld_runtime.miss_us": "us",
    "runtime.rld_runtime.table_rebuilds": "count",
    "runtime.rld_runtime.rebuild_ms": "ms",
    "runtime.rld_runtime.on_fault_ms": "ms",
    "runtime.dyn.on_tick_ms": "ms",
    "runtime.dyn.migrations": "count",
    "setup.rld_compile_ms": "ms",
    "sim_batches_per_s": "1/s",
    "rld_avg_latency_ms": "ms",
    "rld_latency_ms_p99": "ms",
    "rld_tuples_out": "count",
    "op_ms_p50": "ms",
    "trace_overhead_pct": "%",
}

#: Set-up is timed here once and in this many fresh interpreters.
SETUP_PROBES = 4
#: Each kind of operation runs at least this often, whatever --seconds is.
MIN_OPS = 2
PROBE_TIMEOUT_S = 120
#: While an untraced operation runs, a reference slice is timed this
#: often.  On a host whose cores are shared, speed moves by up to 1.7x
#: within seconds, more than any bound worth gating on; operation and
#: reference work slow down together, so their ratio holds still.
SAMPLE_INTERVAL_S = 0.02
#: Set-up seconds are scaled to a host on which one reference slice
#: takes this long, by slices timed right after each set-up for as long
#: as the set-up took.  Unscaled, the median set-up time of
#: ``simulate-q1`` moved by 21% between two sets of ten runs.
REFERENCE_SLICE_S = 0.001


class _Record:
    """A small object carrying a dict, like the program's own records."""

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value
        self.fields = {"key": key, "value": value}


def reference_slice() -> float:
    """Seconds for one fixed slice of interpreter work, unrelated to the program.

    Two halves of about equal time, the mix the compile and the
    simulator spend their time on: an event queue of heap pushes and
    pops with closures and float math, then small objects that carry
    dicts, tuple-keyed dict stores and lookups, and a sort.  The halves
    slow down by different factors when the host's speed changes; in
    runs of ``simulate-q1`` and ``compile-join12`` their sum tracked the
    workloads more closely than either half, or NumPy matrix work.
    """
    start = perf_counter()
    heap: list[tuple[float, int, Callable[[], float]]] = []
    total = 0.0
    for i in range(600):
        value = float(i)
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i, lambda value=value: value))
        if len(heap) > 128:
            key, _, action = heapq.heappop(heap)
            total += math.sqrt(key + action())
    records = [_Record(i, i * 0.5) for i in range(540)]
    index: dict[tuple[int, int], _Record] = {}
    for record in records:
        index[record.key % 517, record.key & 7] = record
        total += record.fields["value"] * 1.0001 + record.value
    records.sort(key=lambda record: (record.key * 7919) % 541)
    for record in records[:270]:
        total += index.get((record.key % 517, record.key & 7), record).value
    return perf_counter() - start


def scaled_setup(seconds: float) -> float:
    """Set-up ``seconds`` as they would read at the nominal reference speed."""
    end = perf_counter() + seconds
    slices = [reference_slice()]
    while perf_counter() < end:
        slices.append(reference_slice())
    return seconds * REFERENCE_SLICE_S / statistics.fmean(slices)


class SpeedSampler:
    """Times a reference slice every SAMPLE_INTERVAL_S, from a SIGALRM handler.

    The handler runs in this thread, between two bytecodes of whatever
    the program is doing, so the slices sample the host's speed while
    an operation runs, and no thread is started.  A signal that arrives
    during a long NumPy call is handled when the call returns.
    """

    def __init__(self) -> None:
        #: (end, seconds) of each slice since the last :meth:`price`.
        self._slices: list[tuple[float, float]] = []

    def _on_alarm(self, signum: int, frame: object) -> None:
        seconds = reference_slice()
        self._slices.append((perf_counter(), seconds))

    @contextmanager
    def running(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._slices.clear()

    def price(self, seconds: float) -> float:
        """Cost in reference slices of the piece of work that just took ``seconds``.

        The slices timed during the piece are taken out of its time, and
        their mean is the piece's unit of cost.
        """
        end = perf_counter()
        inside = [taken for done, taken in self._slices if done >= end - seconds]
        self._slices.clear()
        unit = statistics.fmean(inside) if inside else reference_slice()
        return (seconds - sum(inside)) / unit


def parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, then print the set-up seconds (used internally)",
    )
    return parser.parse_args(argv)


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S
    )
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def repeat(operations: Sequence[Callable[[], Any]], seconds: float) -> list[list[Any]]:
    """Run the operations in turn until ``seconds`` pass and each ran MIN_OPS times."""
    results: list[list[Any]] = [[] for _ in operations]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(results[-1]) < MIN_OPS:
        for operation, done in zip(operations, results):
            gc.collect()
            done.append(operation())
    return results


def check(outcomes: Sequence[Any]) -> tuple[int, int]:
    """Attempted and failed program operations.

    Besides the failures the operations report themselves, an
    operation fails when its fingerprint or one of its exact metrics
    differs from the first operation that reported the same key.
    """
    attempted = failed = 0
    first: dict[str, Any] = {}
    for outcome in outcomes:
        attempted += outcome.attempted
        failed += outcome.failed
        reported = [("fingerprint", k, v) for k, v in outcome.fingerprint.items()]
        reported += [("exact", k, v) for k, v in outcome.exact.items()]
        differs = sorted(
            f"{kind}:{key}"
            for kind, key, value in reported
            if first.setdefault(f"{kind}:{key}", value) != value
        )
        if differs:
            print(f"perfbench: result differs on {differs}", file=sys.stderr)
            failed = min(failed + 1, attempted)
    return attempted, failed


def result(
    outcomes: Sequence[Any], values: dict[str, float], units: dict[str, str]
) -> dict[str, Any]:
    attempted, failed = check(outcomes)
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from the metric table: {sorted(unknown)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def untraced_run(bench: Any, args: argparse.Namespace, setup_s: float) -> dict[str, Any]:
    setups = [setup_s]
    sampler = SpeedSampler()
    # Per operation, its timed pieces priced in reference slices.
    costs: list[list[float]] = []

    def op() -> Any:
        costs.append([])
        with sampler.running():
            outcome = bench.op(lambda seconds: costs[-1].append(sampler.price(seconds)))
        # Spread the set-up probes over the run, so their median sees
        # the host at several moments rather than one.
        due = SETUP_PROBES * (perf_counter() - start) / args.seconds
        while len(setups) - 1 < min(due, SETUP_PROBES):
            setups.append(probe_setup(args))
        return outcome

    start = perf_counter()
    (ops,) = repeat([op], args.seconds)
    while len(setups) - 1 < SETUP_PROBES:
        setups.append(probe_setup(args))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        # A mean, not a median: a run of a long operation holds only a
        # few, and over so few the mean moves less from run to run.
        "op_cost_ref": statistics.fmean(sum(pieces) for pieces in costs),
        "peak_rss_mb": peak_kib / 1024,
    }
    return result(bench.setup_outcomes + ops, values, END_TO_END)


def traced_run(bench: Any, layers: ModuleType, seconds: float) -> dict[str, Any]:
    setup = bench.setup_outcomes + layers.traced_setup(bench)
    ops, traced = repeat([bench.op, layers.traced_op(bench)], seconds)
    outcomes = setup + ops + traced
    values: dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    for outcome in outcomes:
        values.update(outcome.exact)
    for name in {name for outcome in outcomes for name in outcome.times}:
        values[name] = statistics.median(
            outcome.times[name] for outcome in outcomes if name in outcome.times
        )
    values["op_ms_p50"] = 1000 * statistics.median(op.seconds for op in ops)
    # Each traced operation ran right after an untraced one; comparing
    # the two of a pair keeps the host's speed changes out of most pairs.
    values["trace_overhead_pct"] = 100 * statistics.median(
        (t.seconds - u.seconds) / u.seconds for u, t in zip(ops, traced)
    )
    return result(outcomes, values, PER_LAYER)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program source {SRC / 'repro'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import scenarios  # the first import of the program is part of set-up

    bench = scenarios.BENCHES[args.workload](args.seed)
    setup_s = perf_counter() - start
    if args.setup_probe:
        print(json.dumps({"setup_s": scaled_setup(setup_s)}))
        return 0
    if args.trace:
        import layers

        output = traced_run(bench, layers, args.seconds)
    else:
        output = untraced_run(bench, args, scaled_setup(setup_s))
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
