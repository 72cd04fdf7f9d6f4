"""Figure 11: parameter space coverage vs number of optimizer calls.

Three panels (ε = 0.1, 0.2, 0.3 at U = 5): each algorithm's coverage of
the parameter space — and the number of distinct robust plans found —
as a function of its optimizer-call budget (10..300), on a finely
discretized Q1 space so the budget axis is meaningful.

Shape notes vs the paper: ES ramps linearly (it sweeps the grid
row-major and owns full coverage only near one call per cell), while
ERP reaches high coverage within tens of calls — the paper's headline
contrast.  Our analytic cascaded-selectivity cost surfaces are smoother
than a real optimizer's, so a handful of plans already ε-covers the
space and RS saturates *coverage* quickly too; the "RS misses robust
plans" effect the paper reports shows up here in the plans-found
column: RS stops early having found strictly fewer distinct robust
plans than ES, while ERP approaches ES's plan count at a fraction of
the calls.  (We run U = 5 rather than the paper's U = 2 because the
smoother surfaces need a wider space before distinct plans appear at
all — see EXPERIMENTS.md.)
"""

from __future__ import annotations

import pytest
from _harness import Q1_DIMS, logical_searchers, print_panel, space_for

from repro.core import compute_plan_diagram
from repro.core.robustness import coverage_against_sequence
from repro.query import make_optimizer
from repro.workloads import build_q1

EPSILONS = (0.1, 0.2, 0.3)
BUDGETS = (10, 50, 100, 200, 300)
UNCERTAINTY = 5
#: 2·4·5 + 1 = 41... ppl=4 at U=5 gives 21 points/dim → a 441-cell grid,
#: so ES saturates between the 200- and 300-call budgets as in Fig. 11.
POINTS_PER_LEVEL = 4


def sweep(epsilon: float) -> list[dict[str, object]]:
    query = build_q1()
    space = space_for(query, Q1_DIMS, UNCERTAINTY, points_per_level=POINTS_PER_LEVEL)
    diagram = compute_plan_diagram(space, make_optimizer(query))

    coverage: dict[str, list[float]] = {}
    plans_found: dict[str, list[int]] = {}
    for name, searcher in logical_searchers(query, space, epsilon).items():
        result = searcher.run()
        sequence = [(d.at_call, d.plan) for d in result.solution.discoveries]
        coverage[name] = coverage_against_sequence(
            sequence, BUDGETS, diagram, epsilon
        )
        plans_found[name] = [
            sum(1 for at_call, _ in sequence if at_call <= budget)
            for budget in BUDGETS
        ]

    rows = []
    for i, budget in enumerate(BUDGETS):
        row: dict[str, object] = {"calls": budget}
        for name in ("ES", "RS", "ERP"):
            row[f"{name} cov"] = coverage[name][i]
            row[f"{name} plans"] = plans_found[name][i]
        rows.append(row)
    return rows


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_fig11_space_coverage(epsilon, run_once):
    rows = run_once(sweep, epsilon)
    print_panel(
        f"Figure 11 — coverage & plans vs optimizer calls "
        f"(epsilon={epsilon}, U={UNCERTAINTY})",
        ["calls", "ES cov", "ES plans", "RS cov", "RS plans", "ERP cov", "ERP plans"],
        rows,
    )
    final = rows[-1]
    # ES ends with full coverage; ERP ends close to it.
    assert final["ES cov"] == pytest.approx(1.0)
    assert final["ERP cov"] >= 0.85
    # At the smallest budget ERP already covers at least as much as ES.
    assert rows[0]["ERP cov"] >= rows[0]["ES cov"] - 1e-9
    # RS terminates having found no more distinct plans than ES's sweep.
    assert final["RS plans"] <= final["ES plans"]
    # Coverage is monotone in the budget for every algorithm.
    for name in ("ES cov", "RS cov", "ERP cov"):
        series = [row[name] for row in rows]
        assert series == sorted(series)
