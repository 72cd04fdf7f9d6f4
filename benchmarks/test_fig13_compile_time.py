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

import pytest
from _harness import Q1_DIMS, load_table_for, panel_capacity, print_panel

from repro.core import Cluster, exhaustive_physical, greedy_phy, opt_prune
from repro.workloads import build_q1, build_q2

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
