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
a plan set, measured against a ground-truth oracle whose calls are not
charged to the algorithm under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.cost_tensor import CostTensorCache
from repro.core.parameter_space import GridIndex, ParameterSpace, Region
from repro.query.cost import PlanCostModel
from repro.query.optimizer import PointOptimizer
from repro.query.plans import LogicalPlan
from repro.util.types import BoolArray, FloatArray

__all__ = [
    "RegionCheck",
    "RobustnessChecker",
    "grid_optimal_costs",
    "optimal_costs_vector",
    "covered_indices",
    "measure_coverage",
    "robust_region_of_plan",
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
        self._prefetched: dict[GridIndex, LogicalPlan] = {}

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

    def has_cached(self, index: GridIndex) -> bool:
        """True when the corner plan at ``index`` is cached or prefetched.

        Used by the corner prefetcher to avoid speculating on corners
        that would not cost an optimizer search anyway.
        """
        return index in self._corner_plans or index in self._prefetched

    def prefetch(self, index: GridIndex, plan: LogicalPlan) -> None:
        """Hold ``plan``, found by an uncounted search, for ``index``.

        The optimizer call is charged only when :meth:`optimal_plan_at`
        first asks for ``index``, exactly where the serial search would
        have made it.
        """
        self._prefetched[index] = plan

    def optimal_plan_at(self, index: GridIndex, space: ParameterSpace) -> LogicalPlan:
        """Optimal plan at a grid index, cached per index."""
        cached = self._corner_plans.get(index)
        if cached is not None:
            return cached
        point = space.point_at(index)
        known = self._prefetched.pop(index, None)
        if known is None:
            plan = self._optimizer.optimize(point)
        else:
            plan = self._optimizer.charge(point, known)
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


def grid_optimal_costs(
    space: ParameterSpace, oracle: PointOptimizer
) -> dict[GridIndex, float]:
    """Ground-truth optimal cost at every grid point.

    ``oracle`` should be a *separate* optimizer instance from the one
    used by the algorithm under evaluation so its calls do not pollute
    the experiment's call counter.
    """
    costs: dict[GridIndex, float] = {}
    for index in space.grid_indices():
        point = space.point_at(index)
        plan = oracle.optimize(point)
        costs[index] = oracle.plan_cost(plan, point)
    return costs


def optimal_costs_vector(
    space: ParameterSpace, optimal_costs: Mapping[GridIndex, float]
) -> FloatArray:
    """Dense ``(n_points,)`` view of a per-index optimal-cost mapping.

    Entries follow the row-major order of ``space.grid_indices()`` —
    the column order of every :class:`CostTensorCache` tensor.
    """
    return np.fromiter(
        (optimal_costs[index] for index in space.grid_indices()),
        dtype=float,
        count=space.n_points,
    )


def _robust_mask(
    costs: FloatArray,
    space: ParameterSpace,
    optimal_costs: Mapping[GridIndex, float],
    epsilon: float,
) -> BoolArray:
    """Boolean Def. 1 test of a cost vector against the optimum vector."""
    optimal = optimal_costs_vector(space, optimal_costs)
    return costs <= (1.0 + epsilon) * optimal * (1 + 1e-12)


def _indices_of_mask(space: ParameterSpace, mask: BoolArray) -> set[GridIndex]:
    """Grid indices (tuples) of the set flat positions of ``mask``."""
    return {space.index_of_flat(int(flat)) for flat in np.flatnonzero(mask)}


def covered_indices(
    plans: Iterable[LogicalPlan],
    space: ParameterSpace,
    cost_model: PlanCostModel,
    optimal_costs: Mapping[GridIndex, float],
    epsilon: float,
    *,
    cache: CostTensorCache | None = None,
) -> set[GridIndex]:
    """Grid indices where at least one plan in the set is ε-robust.

    A point is covered when the cheapest plan *from the given set* is
    within ``(1 + ε)`` of the true optimum there — exactly the runtime
    classifier's semantics (it always routes a batch to the best plan
    in the robust logical solution).  Evaluated on the dense cost
    tensor; pass ``cache`` to reuse tensors across repeated evaluations
    of overlapping plan sets (e.g. the Figure 11 budget sweep).
    """
    plans = list(plans)
    if not plans:
        return set()
    if cache is None:
        cache = CostTensorCache(space, cost_model, plans)
        best = cache.min_costs()
    else:
        best = cache.min_costs([cache.plan_index(plan) for plan in plans])
    return _indices_of_mask(space, _robust_mask(best, space, optimal_costs, epsilon))


def measure_coverage(
    plans: Iterable[LogicalPlan],
    space: ParameterSpace,
    cost_model: PlanCostModel,
    optimal_costs: Mapping[GridIndex, float],
    epsilon: float,
    *,
    cache: CostTensorCache | None = None,
) -> float:
    """Fraction of grid points ε-covered by the plan set (0.0–1.0)."""
    covered = covered_indices(
        plans, space, cost_model, optimal_costs, epsilon, cache=cache
    )
    return len(covered) / space.n_points


def robust_region_of_plan(
    plan: LogicalPlan,
    space: ParameterSpace,
    cost_model: PlanCostModel,
    optimal_costs: Mapping[GridIndex, float],
    epsilon: float,
    *,
    cache: CostTensorCache | None = None,
) -> set[GridIndex]:
    """Exact robust region of one plan: all indices satisfying Def. 1."""
    if cache is None:
        cache = CostTensorCache(space, cost_model, [plan])
    costs = cache.cost_tensor[cache.plan_index(plan)]
    return _indices_of_mask(space, _robust_mask(costs, space, optimal_costs, epsilon))


def coverage_against_sequence(
    plan_sequence: Sequence[tuple[int, LogicalPlan]],
    budgets: Sequence[int],
    space: ParameterSpace,
    cost_model: PlanCostModel,
    optimal_costs: Mapping[GridIndex, float],
    epsilon: float,
) -> list[float]:
    """Coverage achieved within each optimizer-call budget.

    ``plan_sequence`` pairs each *distinct* plan with the cumulative
    optimizer-call count at which the algorithm discovered it; the
    result lists, for each budget, the coverage of all plans found at
    or under that many calls — the series plotted in Figure 11.
    """
    all_plans = [plan for _, plan in plan_sequence]
    cache = (
        CostTensorCache(space, cost_model, all_plans) if all_plans else None
    )
    results = []
    for budget in budgets:
        plans = [plan for calls, plan in plan_sequence if calls <= budget]
        results.append(
            measure_coverage(
                plans, space, cost_model, optimal_costs, epsilon, cache=cache
            )
        )
    return results
