"""Ablation: ERP's two ingredients — early termination and cost weights.

DESIGN.md calls out two design choices in the logical step:

* the Theorem 1 aging-counter early stop (ERP vs plain WRP), and
* the §4.2 slope/distance weight function for picking partition points
  (vs cost-agnostic midpoint splitting).

This bench quantifies both: optimizer calls saved by early termination
and the coverage cost of dropping the weight model, across uncertainty
levels on Q1's 2-D space.
"""

from __future__ import annotations

from _harness import Q1_DIMS, print_panel, space_for

from repro.core import (
    EarlyTerminatedRobustPartitioning,
    WeightedRobustPartitioning,
    compute_plan_diagram,
    measure_coverage,
)
from repro.query import make_optimizer
from repro.workloads import build_q1

EPSILON = 0.1
LEVELS = (3, 4, 5)
#: Finer discretization than the figures': deep enough partitioning
#: that the aging counter actually fires before WRP finishes.
POINTS_PER_LEVEL = 6


def sweep() -> list[dict[str, object]]:
    query = build_q1()
    rows = []
    for level in LEVELS:
        space = space_for(query, Q1_DIMS, level, points_per_level=POINTS_PER_LEVEL)
        diagram = compute_plan_diagram(space, make_optimizer(query))

        variants = {
            "WRP": WeightedRobustPartitioning(query, space, epsilon=EPSILON),
            "ERP": EarlyTerminatedRobustPartitioning(query, space, epsilon=EPSILON),
            "ERP-uniform": EarlyTerminatedRobustPartitioning(
                query, space, epsilon=EPSILON, use_cost_weights=False
            ),
        }
        row: dict[str, object] = {"U": level}
        for name, searcher in variants.items():
            result = searcher.run()
            coverage = measure_coverage(result.solution.plans, diagram, EPSILON)
            row[f"{name} calls"] = result.optimizer_calls
            row[f"{name} cov"] = coverage
            if name == "ERP":
                row["weight skips"] = result.weight_skips
        rows.append(row)
    return rows


def test_ablation_erp_components(run_once):
    rows = run_once(sweep)
    print_panel(
        f"Ablation — early termination and weight model (epsilon={EPSILON})",
        [
            "U",
            "WRP calls", "WRP cov",
            "ERP calls", "ERP cov",
            "ERP-uniform calls", "ERP-uniform cov",
            "weight skips",
        ],
        rows,
    )
    for row in rows:
        # Early termination never costs calls, and WRP (run to
        # completion) achieves full coverage by construction.
        assert row["ERP calls"] <= row["WRP calls"]
        assert row["WRP cov"] >= 0.99
        # ERP's probabilistic guarantee holds comfortably here.
        assert row["ERP cov"] >= 0.85
