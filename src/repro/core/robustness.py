"""ε-robustness of logical plans (Definitions 1 and 2).

A logical plan ``lp`` is ε-robust in a region ``S`` when

    cost(lp, pntHi) ≤ (1 + ε) · cost(lp_opt(pntHi), pntHi)

(Def. 1).  Because plan costs are monotonically increasing along every
dimension (§4.2 Principle 1), a plan that is optimal at ``pntLo`` and
ε-robust at ``pntHi`` is ε-robust throughout the box — the sandwich
argument under Def. 1.  :class:`RobustnessChecker` packages this test
together with corner-plan caching so each distinct corner costs at most
one optimizer call.

This module also provides the *evaluation* side: exact grid coverage of
a plan set, measured against the exact plan diagram
(:func:`~repro.core.diagram.compute_plan_diagram`) of a ground-truth
oracle whose calls are not charged to the algorithm under test.  Every
evaluation is built on one pointwise Def. 1 test, :func:`robust_mask`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.logical import SCAN_SLAB_ROWS
from repro.core.parameter_space import GridIndex, ParameterSpace, Region
from repro.query.optimizer import PointOptimizer
from repro.query.plans import LogicalPlan
from repro.util.types import BoolArray

if TYPE_CHECKING:
    from repro.core.diagram import PlanDiagram

__all__ = [
    "RegionCheck",
    "RobustnessChecker",
    "coverage_against_sequence",
    "measure_coverage",
    "robust_mask",
]


@dataclass(frozen=True)
class RegionCheck:
    """Outcome of a robustness check on one region.

    ``plan`` is the candidate robust plan (optimal at ``pntLo``);
    ``opt_hi`` the optimal plan at ``pntHi``; ``robust`` whether Def. 1
    held; ``cost_ratio`` the observed ``cost(plan, pntHi) / opt_hi``
    ratio (1.0 when the corners agree).
    """

    plan: LogicalPlan
    opt_hi: LogicalPlan
    robust: bool
    cost_ratio: float


class RobustnessChecker:
    """Def. 1 robustness tests against a black-box optimizer.

    Optimizer calls at region corners are cached by grid index, so
    adjacent regions sharing corners (as produced by ``Region.split_at``)
    do not pay twice.  The cache preserves the paper's cost accounting:
    a cached corner genuinely requires no new optimizer call.
    """

    def __init__(self, optimizer: PointOptimizer, epsilon: float) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        self._optimizer = optimizer
        self._epsilon = epsilon
        self._corner_plans: dict[GridIndex, LogicalPlan] = {}

    @property
    def epsilon(self) -> float:
        """The robustness threshold ε."""
        return self._epsilon

    @property
    def optimizer(self) -> PointOptimizer:
        """The underlying black-box optimizer."""
        return self._optimizer

    @property
    def optimizer_calls(self) -> int:
        """Optimizer calls made through this checker's optimizer."""
        return self._optimizer.call_count

    def optimal_plan_at(self, index: GridIndex, space: ParameterSpace) -> LogicalPlan:
        """Optimal plan at a grid index, cached per index."""
        cached = self._corner_plans.get(index)
        if cached is not None:
            return cached
        plan = self._optimizer.optimize(space.point_at(index))
        self._corner_plans[index] = plan
        return plan

    def check_region(self, region: Region) -> RegionCheck:
        """Def. 1 test over ``region``; at most two optimizer calls.

        The candidate plan is the optimum at ``pntLo``; it is robust in
        the region when its cost at ``pntHi`` stays within ``(1 + ε)``
        of the true optimum there.  A single-cell region is trivially
        robust under its own optimal plan.
        """
        plan_lo = self.optimal_plan_at(region.lo, region.space)
        if region.is_cell:
            return RegionCheck(plan=plan_lo, opt_hi=plan_lo, robust=True, cost_ratio=1.0)
        plan_hi = self.optimal_plan_at(region.hi, region.space)
        if plan_lo == plan_hi:
            return RegionCheck(plan=plan_lo, opt_hi=plan_hi, robust=True, cost_ratio=1.0)
        pnt_hi = region.pnt_hi
        cost_candidate = self._optimizer.plan_cost(plan_lo, pnt_hi)
        cost_optimal = self._optimizer.plan_cost(plan_hi, pnt_hi)
        ratio = cost_candidate / cost_optimal if cost_optimal > 0 else float("inf")
        return RegionCheck(
            plan=plan_lo,
            opt_hi=plan_hi,
            robust=ratio <= 1.0 + self._epsilon,
            cost_ratio=ratio,
        )


def robust_mask(
    plan: LogicalPlan, diagram: PlanDiagram, epsilon: float
) -> BoolArray:
    """Def. 1 at every grid point: where ``plan`` is ε-robust.

    Entry ``k`` (row-major flat position) is true when ``plan`` costs at
    most ``(1 + ε)`` times the diagram's optimal cost there.  Costs are
    priced slab by slab on the grid's broadcast axis columns, so no
    value matrix is gathered and no whole-grid temporary is built.
    """
    space = diagram.space
    pricing = diagram.cost_model
    steps = pricing.steps(plan)
    mask = np.empty(space.n_points, dtype=bool)
    for rows, columns in space.slabs(SCAN_SLAB_ROWS):
        rate, sels = pricing.resolve_axes(columns, space.names)
        costs = pricing.cost_at(steps, rate, sels)
        bound = (1.0 + epsilon) * diagram.optimal_costs[rows] * (1 + 1e-12)
        shape = np.broadcast_shapes(*(column.shape for column in columns))
        mask[rows] = np.less_equal(costs, bound.reshape(shape)).reshape(-1)
    return mask


def measure_coverage(
    plans: Iterable[LogicalPlan], diagram: PlanDiagram, epsilon: float
) -> float:
    """Fraction of grid points ε-covered by the plan set (0.0–1.0).

    A point is covered when some plan of the set is ε-robust there —
    the same as the cheapest plan of the set being within ``(1 + ε)``
    of the optimum, which is the runtime classifier's semantics (it
    routes each batch to the best plan of the robust logical solution).
    """
    covered = np.zeros(diagram.space.n_points, dtype=bool)
    for plan in plans:
        covered |= robust_mask(plan, diagram, epsilon)
    return int(np.count_nonzero(covered)) / diagram.space.n_points


def coverage_against_sequence(
    plan_sequence: Sequence[tuple[int, LogicalPlan]],
    budgets: Sequence[int],
    diagram: PlanDiagram,
    epsilon: float,
) -> list[float]:
    """Coverage achieved within each optimizer-call budget.

    ``plan_sequence`` pairs each *distinct* plan with the cumulative
    optimizer-call count at which the algorithm discovered it; the
    result lists, for each budget, the coverage of all plans found at
    or under that many calls — the series plotted in Figure 11.
    """
    # Earliest discovery call among the plans robust at each point.
    first_call = np.full(diagram.space.n_points, np.inf)
    for calls, plan in plan_sequence:
        robust = robust_mask(plan, diagram, epsilon)
        first_call[robust] = np.minimum(first_call[robust], calls)
    return [
        int(np.count_nonzero(first_call <= budget)) / diagram.space.n_points
        for budget in budgets
    ]
