"""Reference oracle for the ε-coverage harness: the dict/set form it replaced.

The exact optimum is a ``dict[GridIndex, float]`` filled by one optimizer
call per grid point; coverage and robust regions are sets of grid-index
tuples, tested with the cheapest scalar ``plan_cost`` of the plan set at
each point; the ε-reduction rescans an assignment dict per plan.  Tests
compare the flat :class:`~repro.core.diagram.PlanDiagram` and the
mask-based harness of :mod:`repro.core.robustness` against it on small
spaces.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.parameter_space import GridIndex, ParameterSpace
from repro.query.cost import PlanCostModel
from repro.query.optimizer import PointOptimizer
from repro.query.plans import LogicalPlan


def oracle_diagram(
    space: ParameterSpace, oracle: PointOptimizer
) -> tuple[dict[GridIndex, LogicalPlan], dict[GridIndex, float]]:
    """Optimal plan and its cost at every grid index."""
    assignment: dict[GridIndex, LogicalPlan] = {}
    optimal_costs: dict[GridIndex, float] = {}
    for index in space.grid_indices():
        point = space.point_at(index)
        plan = oracle.optimize(point)
        assignment[index] = plan
        optimal_costs[index] = oracle.plan_cost(plan, point)
    return assignment, optimal_costs


def oracle_covered(
    plans: Iterable[LogicalPlan],
    space: ParameterSpace,
    cost_model: PlanCostModel,
    optimal_costs: Mapping[GridIndex, float],
    epsilon: float,
) -> set[GridIndex]:
    """Indices where the set's cheapest plan is within ``(1 + ε)``."""
    plans = list(plans)
    if not plans:
        return set()
    covered = set()
    for index in space.grid_indices():
        point = space.point_at(index)
        best = min(cost_model.plan_cost(plan, point) for plan in plans)
        if best <= (1.0 + epsilon) * optimal_costs[index] * (1 + 1e-12):
            covered.add(index)
    return covered


def oracle_coverage(
    plans: Iterable[LogicalPlan],
    space: ParameterSpace,
    cost_model: PlanCostModel,
    optimal_costs: Mapping[GridIndex, float],
    epsilon: float,
) -> float:
    """Fraction of grid points the plan set ε-covers."""
    covered = oracle_covered(plans, space, cost_model, optimal_costs, epsilon)
    return len(covered) / space.n_points


def oracle_coverage_against_sequence(
    plan_sequence: Sequence[tuple[int, LogicalPlan]],
    budgets: Sequence[int],
    space: ParameterSpace,
    cost_model: PlanCostModel,
    optimal_costs: Mapping[GridIndex, float],
    epsilon: float,
) -> list[float]:
    """Coverage of the plans discovered within each call budget."""
    return [
        oracle_coverage(
            [plan for calls, plan in plan_sequence if calls <= budget],
            space,
            cost_model,
            optimal_costs,
            epsilon,
        )
        for budget in budgets
    ]


def oracle_reduce(
    assignment: Mapping[GridIndex, LogicalPlan],
    optimal_costs: Mapping[GridIndex, float],
    space: ParameterSpace,
    cost_model: PlanCostModel,
    epsilon: float,
) -> dict[GridIndex, LogicalPlan]:
    """Greedy ε-reduction: smallest plan first, first heir that fits."""
    assignment = dict(assignment)
    threshold = 1.0 + epsilon

    def cells_of(plan: LogicalPlan) -> list[GridIndex]:
        return [idx for idx, p in assignment.items() if p == plan]

    changed = True
    while changed:
        changed = False
        survivors = sorted(
            set(assignment.values()),
            key=lambda plan: (
                sum(1 for p in assignment.values() if p == plan),
                plan.order,
            ),
        )
        for victim in survivors:
            victim_cells = cells_of(victim)
            for heir in survivors:
                if heir == victim:
                    continue
                fits = all(
                    cost_model.plan_cost(heir, space.point_at(idx))
                    <= threshold * optimal_costs[idx] * (1 + 1e-12)
                    for idx in victim_cells
                )
                if fits:
                    for idx in victim_cells:
                        assignment[idx] = heir
                    changed = True
                    break
            if changed:
                break
    return assignment
