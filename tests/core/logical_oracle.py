"""Reference oracle for the robustness scan: the per-cell path it replaced.

Plan cells come from one argmin over every plan's cost at every grid
point and are kept as sets of grid-index tuples; weights and expected loads sum
scalar ``cell_probability`` calls cell by cell, and worst-case loads
take the maximum of scalar ``operator_loads`` over the cells.  Exact
grids only: tests compare :class:`RobustLogicalSolution`'s blocked scan
against it on small spaces.
"""

from __future__ import annotations

import numpy as np
from tie_break import lexicographic_argmin, order_ranks

from repro.core.logical import OccurrenceModel, RobustLogicalSolution
from repro.core.parameter_space import GridIndex
from repro.query.plans import LogicalPlan


def oracle_cells(
    solution: RobustLogicalSolution,
) -> dict[LogicalPlan, set[GridIndex]]:
    """Grid indices where each plan is cheapest, ``(cost, plan.order)`` ties."""
    space = solution.space
    values = space.points_matrix(np.arange(space.n_points))
    costs = np.vstack(
        [
            solution.cost_model.plan_costs(plan, values, space.names)
            for plan in solution.plans
        ]
    )
    best = lexicographic_argmin([costs], order_ranks(solution.plans))
    cells: dict[LogicalPlan, set[GridIndex]] = {p: set() for p in solution.plans}
    for index, plan_index in zip(solution.space.grid_indices(), best):
        cells[solution.plans[plan_index]].add(index)
    return cells


def oracle_weights(
    solution: RobustLogicalSolution, occurrence: OccurrenceModel
) -> dict[LogicalPlan, float]:
    """Occurrence mass of each plan's cells, one cell at a time."""
    return {
        plan: sum(occurrence.cell_probability(index) for index in cells)
        for plan, cells in oracle_cells(solution).items()
    }


def oracle_worst_case_loads(
    solution: RobustLogicalSolution, plan: LogicalPlan
) -> dict[int, float]:
    """Per-operator maximum of the scalar loads over the plan's cells."""
    space = solution.space
    cells = oracle_cells(solution)[plan]
    if not cells:
        return solution.cost_model.operator_loads(plan, space.full_region().pnt_hi)
    worst: dict[int, float] = {}
    for index in cells:
        loads = solution.cost_model.operator_loads(plan, space.point_at(index))
        for op_id, load in loads.items():
            worst[op_id] = max(worst.get(op_id, load), load)
    return worst


def oracle_expected_loads(
    solution: RobustLogicalSolution,
    plan: LogicalPlan,
    occurrence: OccurrenceModel,
) -> dict[int, float]:
    """Occurrence-weighted mean of the scalar loads over the plan's cells."""
    space = solution.space
    ordered = sorted(oracle_cells(solution)[plan])
    if not ordered:
        middle = space.point_at(tuple(s // 2 for s in space.shape))
        return solution.cost_model.operator_loads(plan, middle)
    weights = np.array([occurrence.cell_probability(index) for index in ordered])
    loads = [
        solution.cost_model.operator_loads(plan, space.point_at(index))
        for index in ordered
    ]
    return {
        op_id: float(np.array([row[op_id] for row in loads]) @ weights)
        / float(weights.sum())
        for op_id in solution.query.operator_ids
    }
