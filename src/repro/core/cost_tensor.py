"""The vectorized cost-evaluation core shared across the compile pipeline.

Every layer of RLD — ERP partitioning (Alg. 3), ε-robustness evaluation
(Def. 1/2), §4.2 weight assignment, GreedyPhy/OptPrune feasibility
(Alg. 4/5), and the runtime classifier — ultimately asks the same
question: *what does plan ``lp`` cost at point ``pnt``?*  The cost form
is multilinear (§2.3), so the answer over the whole discretized
parameter space is a handful of NumPy tensor operations, not
``O(grid × plans)`` scalar Python calls.

:class:`CostTensorCache` memoizes, per query/space/plan-set:

* the **cost tensor** ``C`` of shape ``(n_plans, n_points)`` — plan
  cost at every grid point, columns in the row-major order of
  :meth:`~repro.core.parameter_space.ParameterSpace.grid_indices`;
* per-plan **load tensors** — ``{op_id: (n_points,)}`` operator load
  vectors, the input to physical feasibility and routing-table
  construction.

Tensors are built with the batch kernels of
:class:`~repro.query.cost.PlanCostModel`, whose accumulation order
mirrors the scalar methods operation for operation — so every slice is
bitwise identical to the scalar value it replaces, and argmin-based
decisions (plan cells, routing tables, coverage) cannot drift from the
scalar semantics they refactor.

:func:`lexicographic_argmin` is the shared tie-break kernel: NumPy has
no argmin over tuples, but every consumer picks plans by a key like
``(cost, plan.order)`` — this computes that columnwise.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.parameter_space import GridIndex, ParameterSpace
from repro.query.cost import PlanCostModel
from repro.query.plans import LogicalPlan
from repro.util.timing import Stopwatch
from repro.util.types import FloatArray, IntArray

__all__ = ["CostTensorCache", "lexicographic_argmin"]


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


class CostTensorCache:
    """Per-query memo of dense cost/load tensors over one plan set.

    Built lazily: nothing is evaluated until the first tensor access,
    and each tensor is computed exactly once.  ``build_seconds``
    accumulates wall-clock time spent inside the batch kernels — the
    timer the CLI's ``compile --profile`` breakdown reads.
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
        # Rank of each plan under the lexicographic ordering of its
        # operator sequence — the deterministic tie-break every scalar
        # ``min(..., key=(cost, plan.order))`` call site uses.
        ordered = sorted(range(len(self._plans)), key=lambda i: self._plans[i].order)
        self._ranks = np.empty(len(self._plans), dtype=np.intp)
        for rank, plan_index in enumerate(ordered):
            self._ranks[plan_index] = rank
        # Shared by reference with every consumer, like the tensors:
        # frozen so an accidental in-place write raises instead of
        # silently re-ordering every future tie-break.
        self._ranks.setflags(write=False)
        self._names = list(space.names)
        self._cost_tensor: FloatArray | None = None
        self._load_tensors: dict[int, dict[int, FloatArray]] = {}
        self._build_seconds = 0.0

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

    @property
    def built(self) -> bool:
        """True once any cost or load tensor has been computed."""
        return self._cost_tensor is not None or bool(self._load_tensors)

    @property
    def build_seconds(self) -> float:
        """Wall-clock seconds spent building tensors so far."""
        return self._build_seconds

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
            watch = Stopwatch()
            grid = self._space.grid_matrix()
            tensor = np.empty((len(self._plans), grid.shape[0]))
            for i, plan in enumerate(self._plans):
                tensor[i] = self._cost_model.plan_costs(plan, grid, self._names)
            tensor.setflags(write=False)
            self._cost_tensor = tensor
            self._build_seconds += watch.seconds
        return self._cost_tensor

    def load_tensor(self, plan_index: int) -> dict[int, FloatArray]:
        """Per-operator load vectors of ``plans[plan_index]`` (memoized).

        Maps operator id to its ``(n_points,)`` load at every grid
        point — the dense form of ``cost_model.operator_loads``.
        """
        cached = self._load_tensors.get(plan_index)
        if cached is None:
            watch = Stopwatch()
            cached = self._cost_model.operator_loads_batch(
                self._plans[plan_index], self._space.grid_matrix(), self._names
            )
            for vector in cached.values():
                vector.setflags(write=False)
            self._load_tensors[plan_index] = cached
            self._build_seconds += watch.seconds
        return cached

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

    def best_plan_per_point(
        self, plan_indices: Sequence[int] | None = None
    ) -> IntArray:
        """Index (into :attr:`plans`) of the cheapest plan at each point.

        Ties break toward the lexicographically smaller plan ordering —
        identical to the scalar ``min(plans, key=(cost, plan.order))``
        used by the classifier and ``plan_cells``.
        """
        if plan_indices is None:
            subset = np.arange(self.n_plans, dtype=np.intp)
        else:
            subset = np.asarray(plan_indices, dtype=np.intp)
        best = lexicographic_argmin(
            [self.cost_tensor[subset]], self._ranks[subset]
        )
        return subset[best]

    def costs_at(self, plan_index: int, flat_indices: IntArray) -> FloatArray:
        """Cost-tensor slice: one plan's costs at selected flat points."""
        return self.cost_tensor[plan_index, flat_indices]

    def flat_indices(self, indices: Iterable[GridIndex]) -> IntArray:
        """Row-major flat positions of grid indices (tensor columns)."""
        return np.fromiter(
            (self._space.flat_index(index) for index in indices), dtype=np.intp
        )
