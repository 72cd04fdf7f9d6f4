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
from grid_points import grid_columns
from tie_break import lexicographic_argmin, order_ranks

from repro.core.logical import OccurrenceModel, RobustLogicalSolution
from repro.core.occurrence import NormalOccurrenceModel
from repro.core.parameter_space import GridIndex
from repro.query.plans import LogicalPlan


def oracle_cells(
    solution: RobustLogicalSolution,
) -> dict[LogicalPlan, set[GridIndex]]:
    """Grid indices where each plan is cheapest, ``(cost, plan.order)`` ties."""
    space = solution.space
    model = solution.cost_model
    rate, sels = model.resolve_axes(grid_columns(space), space.names)
    priced = [model.cost_at(model.steps(plan), rate, sels) for plan in solution.plans]
    costs = np.vstack([np.broadcast_to(cost, space.n_points) for cost in priced])
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


def oracle_scan(
    solution: RobustLogicalSolution,
    occurrence: OccurrenceModel,
    block_rows: int,
) -> dict[LogicalPlan, tuple[float, dict[int, float], dict[int, float]]]:
    """Each plan's weight, worst-case and typical loads, summed the way
    the pass groups its sums, from scalar per-cell values.

    Cells come from :func:`oracle_cells`; masses from scalar
    ``cell_probability`` calls under the normal model (the correlated
    model's batched CDF is read one scan block at a time, as the pass
    reads it); loads from scalar ``operator_loads``.  Each scan block of
    ``block_rows`` flat positions adds its plan's masses one by one, then
    its ``(n_operators, cells)`` load matrix times those masses, and the
    matrix's row sums, to the plan's totals, so the results are
    comparable bit for bit.
    """
    space = solution.space
    model = solution.cost_model
    op_ids = solution.query.operator_ids
    label = {}
    for plan, cells in oracle_cells(solution).items():
        for index in cells:
            label[int(np.ravel_multi_index(index, space.shape))] = plan
    batched = not isinstance(occurrence, NormalOccurrenceModel)
    totals = {
        plan: [0.0, np.zeros(len(op_ids)), np.zeros(len(op_ids))]
        for plan in solution.plans
    }
    worst: dict[LogicalPlan, dict[int, float]] = {plan: {} for plan in solution.plans}
    for start in range(0, space.n_points, block_rows):
        flats = range(start, min(start + block_rows, space.n_points))
        if batched:
            indices = np.unravel_index(np.asarray(flats), space.shape)
            block_masses = occurrence.masses(indices)
        for plan in solution.plans:
            mine = [k for k in flats if label[k] is plan]
            if not mine:
                continue
            masses, columns = [], []
            partial = 0.0
            for k in mine:
                index = space.index_of_flat(k)
                mass = (
                    float(block_masses[k - start])
                    if batched
                    else occurrence.cell_probability(index)
                )
                partial += mass
                masses.append(mass)
                loads = model.operator_loads(plan, space.point_at(index))
                columns.append([loads[op_id] for op_id in op_ids])
                for op_id, load in loads.items():
                    worst[plan][op_id] = max(worst[plan].get(op_id, load), load)
            matrix = np.array(columns).T.copy()
            totals[plan][0] += partial
            totals[plan][1] += matrix @ np.array(masses)
            totals[plan][2] += matrix.sum(axis=1)
    result = {}
    for plan in solution.plans:
        mass, weighted, plain = totals[plan]
        if not worst[plan]:
            corner = space.full_region().pnt_hi
            middle = space.point_at(tuple(s // 2 for s in space.shape))
            result[plan] = (
                mass,
                model.operator_loads(plan, corner),
                model.operator_loads(plan, middle),
            )
            continue
        count = sum(1 for k in label if label[k] is plan)
        means = weighted / mass if mass > 0 else plain / count
        typical = dict(zip(op_ids, means.tolist()))
        result[plan] = (mass, worst[plan], typical)
    return result
