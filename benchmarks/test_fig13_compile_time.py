"""Figure 13: physical-plan compile time vs number of machines.

Six panels: Q1 across 2–6 machines and Q2 across 6–10 machines, each at
three uncertainty levels (ε = 0.1), timing GreedyPhy, OptPrune, and
exhaustive search (ES) on the same robust logical solution.  The
paper's shape: GreedyPhy is fastest (polynomial), ES is slowest and
grows steeply with machines/operators, and OptPrune lands near
GreedyPhy thanks to its bound — while matching ES's quality
(Figure 14).

Panel dimensions follow EXPERIMENTS.md: Q1 uses its two fan-out joins,
Q2 the low-cost joins whose ranks swing widest; levels are chosen so
every panel's space holds multiple robust plans (our analytic cost
surfaces need one level more than the paper's real optimizer did).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest
from _harness import Q1_DIMS, load_table_for, panel_capacity, print_panel

from repro.core import (
    Cluster,
    RLDConfig,
    RLDOptimizer,
    exhaustive_physical,
    greedy_phy,
    opt_prune,
)
from repro.query.optimizer import DPOptimizer
from repro.workloads import build_nway, build_q1, build_q2

EPSILON = 0.1
#: (query builder, machine counts, 2-D dims, uncertainty levels).
SCENARIOS = {
    "Q1": (build_q1, (2, 3, 4, 5, 6), Q1_DIMS, (2, 3, 4)),
    "Q2": (build_q2, (4, 5, 6, 7, 8), ("sel:3", "sel:5", "sel:7"), (1, 2, 3)),
}


def sweep(query_name: str, level: int) -> list[dict[str, object]]:
    builder, machine_counts, dims, _ = SCENARIOS[query_name]
    query = builder()
    table = load_table_for(query, dims, level, epsilon=EPSILON)
    capacity = panel_capacity(table, machine_counts)
    rows = []
    for n_nodes in machine_counts:
        cluster = Cluster.homogeneous(n_nodes, capacity)
        greedy = greedy_phy(table, cluster)
        pruned = opt_prune(table, cluster)
        exhaustive = exhaustive_physical(table, cluster)
        rows.append(
            {
                "machines": n_nodes,
                "GreedyPhy ms": greedy.compile_seconds * 1000,
                "OptPrune ms": pruned.compile_seconds * 1000,
                "ES ms": exhaustive.compile_seconds * 1000,
                "plans": table.n_plans,
            }
        )
    return rows


def _cases():
    for query_name, (_, _, _, levels) in SCENARIOS.items():
        for level in levels:
            yield query_name, level


@pytest.mark.parametrize("query_name,level", list(_cases()))
def test_fig13_compile_time(query_name, level, run_once):
    rows = run_once(sweep, query_name, level)
    print_panel(
        f"Figure 13 — compile time vs machines ({query_name}, "
        f"epsilon={EPSILON}, U={level})",
        ["machines", "GreedyPhy ms", "OptPrune ms", "ES ms", "plans"],
        rows,
    )
    # Over the sweep the paper's ordering holds: GreedyPhy ≤ OptPrune ≪
    # ES.  Compare medians with a small absolute floor — individual
    # sub-millisecond cells are at the mercy of GC pauses.
    def median(key: str) -> float:
        values = sorted(row[key] for row in rows)
        return values[len(values) // 2]

    assert median("GreedyPhy ms") <= median("OptPrune ms") * 2 + 0.5
    assert median("OptPrune ms") <= median("ES ms") + 0.5
    assert median("GreedyPhy ms") <= median("ES ms") + 0.5


# ----------------------------------------------------------------------
# Parallel compile: the `--jobs` sweep
# ----------------------------------------------------------------------

PARALLEL_JOBS = (1, 2, 4)
PARALLEL_TARGET_SPEEDUP = 2.0
PARALLEL_RESULT_PATH = (
    Path(__file__).resolve().parents[1] / "BENCH_parallel.json"
)


PARALLEL_EPSILON = 0.02


def _parallel_scenario():
    """A 12-way join compile dominated by per-corner optimizer work.

    With the DP optimizer each corner costs ~2^12 subset evaluations,
    so ERP's corner waves are the compile's critical path (~94% of
    wall-clock serial) — the regime the worker pool is built for.  The
    seed is chosen so the rank-clustered statistics yield a deep
    region split (≈90 optimizer calls, dozens of robust plans).
    """
    query = build_nway(12, seed=13)
    uncertainty = {op.selectivity_param: 3 for op in query.operators[:4]}
    estimate = query.default_estimates(uncertainty)
    cluster = Cluster.homogeneous(4, 420.0)
    return query, estimate, cluster


def _parallel_solution_key(solution, point_optimizer):
    """The deterministic face of an RLD compile (no timings), plus the
    calls charged to the caller's point optimizer."""
    table = solution.load_table
    return (
        point_optimizer.call_count,
        solution.logical.plans,
        solution.logical.discoveries,
        solution.partitioning.optimizer_calls,
        tuple(table.weight_of(plan) for plan in table.plans),
        table.load_matrix.tobytes(),
        solution.physical.physical_plan,
        solution.physical.supported_plans,
        solution.physical.score,
    )


def test_parallel_compile_jobs_sweep():
    """`repro compile --jobs N`: identical solutions, falling wall-clock.

    Runs the full RLD pipeline at jobs ∈ {1, 2, 4} with the DP point
    optimizer (chunky per-corner work — the regime worker prefetch is
    built for), asserts the solutions are bitwise-identical, and writes
    the timing sweep to ``BENCH_parallel.json``.  The ≥2× speedup gate
    only applies where four workers have four cores to run on.
    """
    query, estimate, cluster = _parallel_scenario()
    rows = []
    keys = []
    for jobs in PARALLEL_JOBS:
        config = RLDConfig(epsilon=PARALLEL_EPSILON, jobs=jobs)
        point_optimizer = DPOptimizer(query)
        optimizer = RLDOptimizer(
            query, cluster, config=config, point_optimizer=point_optimizer
        )
        start = time.perf_counter()
        solution = optimizer.solve(estimate)
        elapsed = time.perf_counter() - start
        keys.append(_parallel_solution_key(solution, point_optimizer))
        rows.append(
            {
                "jobs": jobs,
                "compile seconds": elapsed,
                "worker busy seconds": solution.stage_seconds.get(
                    "workers:partitioning", 0.0
                ),
                "optimizer calls": solution.partitioning.optimizer_calls,
            }
        )

    # Determinism before speed: every jobs count must produce the same
    # artifact, or the sweep is comparing different compiles.
    for jobs, key in zip(PARALLEL_JOBS, keys):
        assert key == keys[0], f"--jobs {jobs} diverged from serial"

    serial_seconds = rows[0]["compile seconds"]
    best_parallel = min(row["compile seconds"] for row in rows[1:])
    speedup = serial_seconds / best_parallel
    payload = {
        "benchmark": "parallel_compile",
        "config": {
            "query": "nway12/seed13",
            "uncertainty_levels": 3,
            "uncertain_dims": 4,
            "epsilon": PARALLEL_EPSILON,
            "point_optimizer": "DPOptimizer",
            "jobs": list(PARALLEL_JOBS),
        },
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "speedup": speedup,
        "identical_solutions": True,
    }
    PARALLEL_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print_panel(
        "Parallel compile — wall-clock vs --jobs (12-way join, DP optimizer)",
        ["jobs", "compile seconds", "worker busy seconds", "optimizer calls"],
        rows,
    )
    print(f"parallel compile speedup {speedup:.2f}x on {os.cpu_count()} cpus")
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= PARALLEL_TARGET_SPEEDUP, (
            f"4-worker compile only {speedup:.2f}x faster than serial "
            f"(target {PARALLEL_TARGET_SPEEDUP}x); see {PARALLEL_RESULT_PATH}"
        )
