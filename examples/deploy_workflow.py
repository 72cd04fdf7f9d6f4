"""A production-shaped deployment workflow, end to end.

Walks the full operational loop a deployment of RLD would follow:

1. **Calibrate** — record a training window of live statistics and
   derive point estimates *and uncertainty levels* from it (§2.2's
   "representative training data set").
2. **Compile** — build the robust logical solution and physical plan.
3. **Ship** — serialize the compiled solution to JSON and reload it,
   as the executor nodes would at startup.
4. **Replay** — re-run the recorded trace against the reloaded
   solution with event tracing on, and audit one batch's journey
   through the cluster.

Run:  python examples/deploy_workflow.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import Cluster, RLDConfig, RLDOptimizer
from repro.core import load_solution, save_solution
from repro.engine import SimulationTrace, StreamSimulator
from repro.query import calibrate_workload
from repro.runtime import RLDStrategy
from repro.workloads import ReplayWorkload, build_q1, stock_workload


def main() -> None:
    query = build_q1()

    # ── 1. Calibrate from a training window ────────────────────────────
    live = stock_workload(query, uncertainty_level=3, regime_period=60.0)
    estimate = calibrate_workload(live, duration=300.0, n_samples=600)
    print("=== Calibrated estimates (from a 5-minute training window) ===")
    for name in sorted(estimate.estimates):
        level = estimate.uncertainty.get(name, 0)
        print(f"  {name:<8} estimate {estimate.estimates[name]:8.3f}   level U={level}")

    # ── 2. Compile ──────────────────────────────────────────────────────
    # The calibrated space is wide (every parameter at level 5): four
    # nodes of capacity 700 support 5 of its plans, while at 420 no
    # placement supports any and the replay cannot route a batch.
    cluster = Cluster.homogeneous(4, 700.0)
    solution = RLDOptimizer(query, cluster, config=RLDConfig(epsilon=0.2)).solve(
        estimate
    )
    print(f"\nCompiled {len(solution.logical)} robust plans "
          f"({solution.partitioning.optimizer_calls} optimizer calls); "
          f"physical plan supports {len(solution.supported_plans)}.")

    # ── 3. Ship as JSON and reload ──────────────────────────────────────
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rld_solution.json"
        save_solution(solution, path)
        size_kb = path.stat().st_size / 1024
        deployed = load_solution(path)
    print(f"Round-tripped through JSON ({size_kb:.1f} KiB); "
          f"placement intact: "
          f"{deployed.physical.physical_plan == solution.physical.physical_plan}")

    # ── 4. Replay the recorded trace with tracing on ────────────────────
    trace_workload = ReplayWorkload.record(live, duration=300.0, n_samples=600)
    trace = SimulationTrace()
    strategy = RLDStrategy(deployed)
    report = StreamSimulator(
        query, deployed.cluster, strategy, trace_workload, seed=71, trace=trace
    ).run(300.0)

    print(f"\n=== Replayed 5 minutes against the deployed solution ===")
    print(f"  avg latency : {report.avg_tuple_latency_ms:8.1f} ms "
          f"(p95 {report.latency_percentile_ms(95):.1f} ms)")
    print(f"  throughput  : {report.tuples_out:8.0f} tuples out, "
          f"{report.batches_completed} batches")
    print(f"  overhead    : {report.overhead_fraction:8.2%} (classification only)")
    print(f"  plan switches {report.plan_switches}, migrations {report.migrations}")
    print(f"  trace held {len(trace)} events: {trace.summary()}")

    # Audit one mid-run batch's journey.
    batch_id = report.batches_completed // 2
    journey = trace.batch_journey(batch_id)
    if journey:
        print(f"\nJourney of batch {batch_id}:")
        for event in journey:
            where = f" node {event.node}" if event.node is not None else ""
            what = f" op{event.op_id}" if event.op_id is not None else ""
            plan = f" via {event.plan_label}" if event.plan_label else ""
            print(f"  t={event.time:8.3f}s {event.kind:<9}{what}{where}{plan} "
                  f"{event.detail}")


if __name__ == "__main__":
    main()
