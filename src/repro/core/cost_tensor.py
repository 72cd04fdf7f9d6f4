"""The vectorized cost-evaluation core shared across the compile pipeline.

Every layer of RLD — ERP partitioning (Alg. 3), ε-robustness evaluation
(Def. 1/2), §4.2 weight assignment, GreedyPhy/OptPrune feasibility
(Alg. 4/5), and the runtime classifier — ultimately asks the same
question: *what does plan ``lp`` cost at point ``pnt``?*  The cost form
is multilinear (§2.3), so the answer over the whole discretized
parameter space is a handful of NumPy tensor operations, not
``O(grid × plans)`` scalar Python calls.

:class:`CostTensorCache` memoizes, per query/space/plan-set, the
**cost tensor** ``C`` of shape ``(n_plans, n_points)`` — plan cost at
every grid point, columns in the row-major order of
:meth:`~repro.core.parameter_space.ParameterSpace.grid_indices` — for
the ε-robustness evaluation of small spaces.

The tensor is built with the batch kernels of
:class:`~repro.query.cost.PlanCostModel`, whose accumulation order
mirrors the scalar methods operation for operation — so every slice is
bitwise identical to the scalar value it replaces, and argmin-based
decisions (plan cells, coverage) cannot drift from the scalar
semantics they refactor.

:func:`lexicographic_argmin` is the shared tie-break kernel: NumPy has
no argmin over tuples, but every consumer picks plans by a key like
``(cost, plan.order)`` — this computes that columnwise.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.parameter_space import ParameterSpace
from repro.query.cost import PlanCostModel
from repro.query.plans import LogicalPlan
from repro.util.types import FloatArray, IntArray

__all__ = ["CostTensorCache", "lexicographic_argmin", "order_ranks"]


def lexicographic_argmin(
    keys: Sequence[FloatArray], ranks: IntArray
) -> IntArray:
    """Columnwise argmin over stacked ``(n_candidates, n_points)`` keys.

    For each point (column), returns the candidate row minimizing the
    tuple ``(keys[0][p], keys[1][p], ..., ranks[p])`` — exactly the
    semantics of Python's ``min(..., key=lambda p: (k0, k1, ..., rank))``
    applied per column.  ``ranks`` is the final integer tie-break (e.g.
    each plan's position in ``sorted(plans, key=plan.order)``), so the
    result is deterministic even under exact float cost ties.
    """
    if not keys:
        raise ValueError("lexicographic_argmin needs at least one key array")
    first = np.asarray(keys[0])
    n_candidates, n_points = first.shape
    cols = np.arange(n_points)
    best = np.zeros(n_points, dtype=np.intp)
    for p in range(1, n_candidates):
        tied = np.ones(n_points, dtype=bool)
        better = np.zeros(n_points, dtype=bool)
        for key in keys:
            key = np.asarray(key)
            candidate = key[p]
            incumbent = key[best, cols]
            better |= tied & (candidate < incumbent)
            tied &= candidate == incumbent
        better |= tied & (ranks[p] < ranks[best])
        best = np.where(better, p, best)
    return best


def order_ranks(plans: Sequence[LogicalPlan]) -> IntArray:
    """Rank of each plan under the lexicographic order of its operators.

    The final :func:`lexicographic_argmin` key: the deterministic
    tie-break of every scalar ``min(..., key=(cost, plan.order))``.
    """
    ordered = sorted(range(len(plans)), key=lambda i: plans[i].order)
    ranks = np.empty(len(plans), dtype=np.intp)
    for rank, plan_index in enumerate(ordered):
        ranks[plan_index] = rank
    return ranks


class CostTensorCache:
    """Per-query memo of the dense cost tensor over one plan set.

    Built lazily: nothing is evaluated until the first tensor access,
    and the tensor is computed exactly once.
    """

    def __init__(
        self,
        space: ParameterSpace,
        cost_model: PlanCostModel,
        plans: Iterable[LogicalPlan],
    ) -> None:
        self._space = space
        self._cost_model = cost_model
        self._plans = tuple(plans)
        if not self._plans:
            raise ValueError("CostTensorCache needs at least one plan")
        # Shared by reference with every consumer, like the tensor:
        # frozen so an accidental in-place write raises instead of
        # silently re-ordering every future tie-break.
        self._ranks = order_ranks(self._plans)
        self._ranks.setflags(write=False)
        self._names = list(space.names)
        self._cost_tensor: FloatArray | None = None

    @property
    def space(self) -> ParameterSpace:
        """The parameter space the tensors are evaluated over."""
        return self._space

    @property
    def cost_model(self) -> PlanCostModel:
        """The analytic cost model backing the tensors."""
        return self._cost_model

    @property
    def plans(self) -> tuple[LogicalPlan, ...]:
        """The plan set, in construction order (the tensor's row order)."""
        return self._plans

    @property
    def n_plans(self) -> int:
        """Number of plans (rows of the cost tensor)."""
        return len(self._plans)

    @property
    def n_points(self) -> int:
        """Number of grid points (columns of the cost tensor)."""
        return self._space.n_points

    @property
    def plan_ranks(self) -> IntArray:
        """Per-plan lexicographic tie-break ranks (see ctor)."""
        return self._ranks

    def plan_index(self, plan: LogicalPlan) -> int:
        """Row of ``plan`` in the cost tensor; raises if absent."""
        return self._plans.index(plan)

    @property
    def cost_tensor(self) -> FloatArray:
        """The ``(n_plans, n_points)`` plan-cost tensor (memoized).

        Row ``i`` is ``plans[i]``'s cost at every grid point, in the
        row-major point order of ``space.grid_indices()``; entry values
        are bitwise identical to ``cost_model.plan_cost``.
        """
        if self._cost_tensor is None:
            grid = self._space.grid_matrix()
            tensor = np.empty((len(self._plans), grid.shape[0]))
            for i, plan in enumerate(self._plans):
                tensor[i] = self._cost_model.plan_costs(plan, grid, self._names)
            tensor.setflags(write=False)
            self._cost_tensor = tensor
        return self._cost_tensor

    def min_costs(self, plan_indices: Sequence[int] | None = None) -> FloatArray:
        """Cheapest-cost vector over a plan subset — ``min over plans``.

        The single home of the repeated
        ``min(cost_model.plan_cost(plan, point) for plan in plans)``
        idiom: one ``(n_points,)`` vector instead of a scalar call per
        grid point per plan.  ``None`` means all plans.
        """
        tensor = self.cost_tensor
        if plan_indices is not None:
            tensor = tensor[np.asarray(plan_indices, dtype=np.intp)]
        return tensor.min(axis=0)
