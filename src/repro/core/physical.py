"""Physical plans: operator→machine assignments and Def. 3 robustness.

A physical plan partitions the query's operator set ``OP`` across the
cluster's nodes (Def. 3: per-node cost within resources, blocks
disjoint, union complete).  A node's operator set is a *configuration*
(§2.3); a configuration **supports** a logical plan when the worst-case
loads of its operators under that plan fit within the node's capacity,
and a physical plan supports a plan when *every* configuration does.

Support is computed against a :class:`PlanLoadTable` — per-plan
worst-case operator loads plus occurrence-probability weights derived
from a :class:`~repro.core.logical.RobustLogicalSolution` — and encoded
as bitmasks over the plan list, which makes OptPrune's Lemma 1 ("adding
a configuration never raises the score") literal bitwise-AND
monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.logical import RobustLogicalSolution
from repro.core.occurrence import NormalOccurrenceModel
from repro.query.plans import LogicalPlan
from repro.util.types import FloatArray
from repro.util.validation import ensure_finite, ensure_non_empty, ensure_positive

__all__ = [
    "Cluster",
    "PlanLoadTable",
    "PhysicalPlan",
    "PhysicalPlanResult",
    "InfeasiblePlacementError",
]


class InfeasiblePlacementError(RuntimeError):
    """No physical plan can support even one robust logical plan."""


@dataclass(frozen=True)
class Cluster:
    """The compute cluster: one resource capacity per node (§2.1).

    The paper assumes a shared-nothing *homogeneous* cluster; the
    heterogeneous case is accepted for LLF/GreedyPhy but rejected by the
    partition-based searches (OptPrune, exhaustive), whose machine
    symmetry-breaking requires equal capacities.
    """

    capacities: tuple[float, ...]

    def __post_init__(self) -> None:
        ensure_non_empty(self.capacities, "capacities")
        for i, capacity in enumerate(self.capacities):
            name = f"capacity of node {i}"
            ensure_positive(ensure_finite(capacity, name), name)

    @classmethod
    def homogeneous(cls, n_nodes: int, capacity: float) -> "Cluster":
        """A cluster of ``n_nodes`` identical machines."""
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        return cls((capacity,) * n_nodes)

    @property
    def n_nodes(self) -> int:
        """Number of machines ``N``."""
        return len(self.capacities)

    @property
    def is_homogeneous(self) -> bool:
        """True when all nodes share one capacity."""
        return len(set(self.capacities)) == 1

    @property
    def uniform_capacity(self) -> float:
        """The shared capacity; raises for heterogeneous clusters."""
        if not self.is_homogeneous:
            raise ValueError("cluster is heterogeneous; no uniform capacity")
        return self.capacities[0]

    @property
    def total_capacity(self) -> float:
        """Aggregate resources across all nodes."""
        return sum(self.capacities)


class PlanLoadTable:
    """Worst-case operator loads and weights per robust logical plan.

    Plans are kept in descending-weight order (deterministic tie-break
    on the plan ordering), which is both GreedyPhy's drop order and the
    bit layout of support masks: bit ``i`` of a mask refers to
    ``plans[i]``.
    """

    def __init__(
        self,
        plans: Sequence[LogicalPlan],
        loads: Mapping[LogicalPlan, Mapping[int, float]],
        weights: Mapping[LogicalPlan, float],
        *,
        typical_loads: Mapping[LogicalPlan, Mapping[int, float]] | None = None,
    ) -> None:
        ensure_non_empty(plans, "plans")
        ordered = sorted(plans, key=lambda p: (-weights[p], p.order))
        self._plans = tuple(ordered)
        self._weights = tuple(float(weights[p]) for p in self._plans)
        op_sets = {frozenset(loads[p]) for p in self._plans}
        if len(op_sets) != 1:
            raise ValueError("all plans must cover the same operator set")
        self._operator_ids = tuple(sorted(next(iter(op_sets))))
        self._op_column = {op_id: j for j, op_id in enumerate(self._operator_ids)}
        # Dense (n_plans, n_ops) backing matrices: one row per plan, one
        # column per sorted operator id.  All mask/score/load queries
        # below are vectorized slices of them.  Shared by reference
        # through the load_matrix property; frozen so consumers cannot
        # corrupt the queries below.
        self._load_matrix = self._matrix(loads)
        self._weight_vector = np.array(self._weights)
        self._weight_vector.setflags(write=False)
        self._typical_matrix = (
            None if typical_loads is None else self._matrix(typical_loads)
        )

    def _matrix(
        self, loads: Mapping[LogicalPlan, Mapping[int, float]]
    ) -> FloatArray:
        """``loads`` as a frozen ``(n_plans, n_ops)`` matrix in table order."""
        matrix = np.array(
            [[loads[p][op_id] for op_id in self._operator_ids] for p in self._plans]
        )
        matrix.setflags(write=False)
        return matrix

    @classmethod
    def from_solution(
        cls,
        solution: RobustLogicalSolution,
        *,
        occurrence: NormalOccurrenceModel | None = None,
    ) -> "PlanLoadTable":
        """Derive loads (region-worst-case) and weights from a solution."""
        weights = solution.plan_weights(occurrence)
        loads = {
            plan: solution.worst_case_loads(plan) for plan in solution.plans
        }
        typical = {
            plan: solution.expected_loads(plan, occurrence)
            for plan in solution.plans
        }
        return cls(solution.plans, loads, weights, typical_loads=typical)

    @property
    def plans(self) -> tuple[LogicalPlan, ...]:
        """Plans in descending weight order (mask bit order)."""
        return self._plans

    @property
    def operator_ids(self) -> tuple[int, ...]:
        """All operator ids, sorted."""
        return self._operator_ids

    @property
    def n_plans(self) -> int:
        """Number of robust logical plans."""
        return len(self._plans)

    @property
    def full_mask(self) -> int:
        """Mask with every plan's bit set."""
        return (1 << self.n_plans) - 1

    def weight_of(self, plan: LogicalPlan) -> float:
        """Occurrence weight of ``plan``."""
        return self._weights[self._plans.index(plan)]

    @property
    def load_matrix(self) -> FloatArray:
        """Dense ``(n_plans, n_ops)`` worst-case load matrix.

        Row order is :attr:`plans`; column order :attr:`operator_ids`.
        Callers must treat the array as read-only.
        """
        return self._load_matrix

    def load(self, plan_index: int, op_id: int) -> float:
        """Worst-case load of ``op_id`` under plan ``plan_index``."""
        return float(self._load_matrix[plan_index, self._op_column[op_id]])

    def _columns(self, ops: Iterable[int]) -> list[int]:
        """Matrix column indices of an operator-id collection."""
        return [self._op_column[op_id] for op_id in ops]

    def _mask_rows(self, mask: int) -> list[int]:
        """Matrix row indices of the set bits of a plan mask."""
        return [i for i in range(self.n_plans) if mask >> i & 1]

    def config_load(self, plan_index: int, ops: Iterable[int]) -> float:
        """Total worst-case load of an operator set under one plan."""
        return float(self._load_matrix[plan_index, self._columns(ops)].sum())

    def support_mask(self, ops: Iterable[int], capacity: float) -> int:
        """Bitmask of plans a configuration supports on one node.

        Bit ``i`` is set when the configuration's worst-case load under
        ``plans[i]`` fits within ``capacity`` — one vectorized row-sum
        comparison over all plans at once.
        """
        totals = self._load_matrix[:, self._columns(ops)].sum(axis=1)
        fits = totals <= capacity * (1 + 1e-12)
        mask = 0
        for i in np.flatnonzero(fits):
            mask |= 1 << int(i)
        return mask

    def score(self, mask: int) -> float:
        """Total weight of the plans whose bits are set in ``mask``."""
        return float(self._weight_vector[self._mask_rows(mask)].sum())

    def plans_in_mask(self, mask: int) -> tuple[LogicalPlan, ...]:
        """The plan objects whose bits are set in ``mask``."""
        return tuple(
            self._plans[i] for i in range(self.n_plans) if mask >> i & 1
        )

    def mask_of(self, plans: Iterable[LogicalPlan]) -> int:
        """Mask with exactly the given plans' bits set."""
        index = {plan: i for i, plan in enumerate(self._plans)}
        mask = 0
        for plan in plans:
            mask |= 1 << index[plan]
        return mask

    def expected_loads(self, mask: int | None = None) -> dict[int, float]:
        """Weight-averaged *typical* per-operator load over a plan subset.

        The runtime-representative profile used for placement balancing
        (falls back to :meth:`max_loads` when the table was built
        without typical loads).  ``None`` means all plans.
        """
        if self._typical_matrix is None:
            return self.max_loads(mask)
        if mask is None:
            mask = self.full_mask
        indices = self._mask_rows(mask)
        if not indices:
            raise ValueError("expected_loads over an empty plan mask")
        weights = self._weight_vector[indices]
        rows = self._typical_matrix[indices]
        total_weight = float(weights.sum())
        if total_weight <= 0:
            averaged = rows.mean(axis=0)
        else:
            averaged = (weights @ rows) / total_weight
        return {
            op_id: float(averaged[j]) for j, op_id in enumerate(self._operator_ids)
        }

    def max_loads(self, mask: int | None = None) -> dict[int, float]:
        """Per-operator max load across the plans in ``mask``.

        This is GreedyPhy's ``lp_max`` (Algorithm 4 line 2): a synthetic
        plan whose operator costs are the maxima over the plan subset,
        so a placement feasible for ``lp_max`` supports every plan in
        the subset simultaneously.  ``None`` means all plans.
        """
        if mask is None:
            mask = self.full_mask
        indices = self._mask_rows(mask)
        if not indices:
            raise ValueError("max_loads over an empty plan mask")
        peaks = self._load_matrix[indices].max(axis=0)
        return {
            op_id: float(peaks[j]) for j, op_id in enumerate(self._operator_ids)
        }


@dataclass(frozen=True)
class PhysicalPlan:
    """A Def. 3 operator partition: one operator set per node.

    ``assignment[i]`` is the configuration placed on node ``i`` (may be
    empty — an idle machine).  Construction validates disjointness; use
    :meth:`covers` to check union-completeness against a query's
    operator set.
    """

    assignment: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        ensure_non_empty(self.assignment, "assignment")
        seen: set[int] = set()
        for i, ops in enumerate(self.assignment):
            overlap = seen & ops
            if overlap:
                raise ValueError(
                    f"operators {sorted(overlap)} assigned to multiple nodes"
                )
            seen |= ops

    @property
    def n_nodes(self) -> int:
        """Number of node slots in the assignment."""
        return len(self.assignment)

    @property
    def nodes_used(self) -> int:
        """Number of nodes with at least one operator."""
        return sum(1 for ops in self.assignment if ops)

    @property
    def placed_operators(self) -> frozenset[int]:
        """All operators placed by this plan."""
        result: set[int] = set()
        for ops in self.assignment:
            result |= ops
        return frozenset(result)

    def covers(self, operator_ids: Iterable[int]) -> bool:
        """Def. 3 union condition: every operator is placed."""
        return self.placed_operators == frozenset(operator_ids)

    def node_of(self, op_id: int) -> int:
        """Node index hosting ``op_id``; raises ``KeyError`` if unplaced."""
        for node, ops in enumerate(self.assignment):
            if op_id in ops:
                return node
        raise KeyError(f"operator {op_id} is not placed by this physical plan")

    def support_mask(self, table: PlanLoadTable, cluster: Cluster) -> int:
        """Plans supported by this assignment on the given cluster.

        A plan is supported when every node's configuration fits that
        plan's worst-case loads within the node's capacity (bitwise AND
        over per-node support masks).
        """
        if self.n_nodes != cluster.n_nodes:
            raise ValueError(
                f"assignment has {self.n_nodes} nodes, cluster {cluster.n_nodes}"
            )
        mask = table.full_mask
        for ops, capacity in zip(self.assignment, cluster.capacities):
            if not ops:
                continue
            mask &= table.support_mask(ops, capacity)
            if mask == 0:
                break
        return mask

    def __repr__(self) -> str:
        parts = " | ".join(
            "{" + ",".join(f"op{i}" for i in sorted(ops)) + "}"
            for ops in self.assignment
        )
        return f"PhysicalPlan({parts})"


@dataclass(frozen=True)
class PhysicalPlanResult:
    """Outcome of one physical-plan generation run.

    ``score`` is the total occurrence weight of ``supported_plans``
    (the §5 objective); ``compile_seconds`` the wall-clock search time
    plotted in Figure 13.
    """

    algorithm: str
    physical_plan: PhysicalPlan | None
    supported_plans: tuple[LogicalPlan, ...]
    score: float
    compile_seconds: float
    nodes_explored: int = 0

    @property
    def feasible(self) -> bool:
        """True when a plan supporting at least one logical plan exists."""
        return self.physical_plan is not None and bool(self.supported_plans)
