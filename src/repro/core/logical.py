"""Robust logical solutions: plan sets covering the parameter space.

A *robust logical solution* ``LP_i`` (Def. 2 / §2.4) is a set of
logical plans such that for (almost) every point of the parameter
space, at least one plan in the set is ε-robust there.  Beyond holding
the plans, this class provides the two derived artifacts the rest of
the pipeline needs:

* the **plan-cell partition** — each grid point labelled with the plan
  that is cheapest there (the runtime classifier's routing rule), the
  "robust region" behind plan weights and worst-case loads; and
* **plan weights** — the occurrence-probability mass of each plan's
  region (§5.2 Example 4), the priority order in which GreedyPhy and
  OptPrune try to support plans.

Both come from one blocked scan over row-major flat grid indices that
keeps a single plan-label array.  The scan is exact up to
:data:`MAX_SCAN_POINTS` grid points; above it, the scan visits a
fixed-seed sample, weights become estimates, and worst-case loads come
from the space's top corner, which bounds every point.  The scan's
block iterator (:func:`row_blocks`) also drives the ε-coverage harness
in :mod:`repro.core.robustness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.correlation import CorrelatedOccurrenceModel
from repro.core.occurrence import NormalOccurrenceModel
from repro.core.parameter_space import ParameterSpace, Region
from repro.query.cost import PlanCostModel
from repro.query.model import Query
from repro.query.plans import LogicalPlan
from repro.util.rng import derive_rng
from repro.util.types import FloatArray, IntArray

__all__ = ["RobustLogicalSolution", "PlanDiscovery", "lexicographic_argmin"]

#: Most grid points one robustness scan visits.  Spaces up to this size
#: are scanned exactly; larger ones (high-dimensional grids are
#: exponentially large) scan a fixed-seed uniform sample of this many.
#: It sits above the q1 spaces of the default compile (84,035 points)
#: and of Figure 16b (151,263): there, the top-corner loads used above
#: the cap would drop supported plans.
MAX_SCAN_POINTS = 1 << 18

#: Grid points evaluated together, bounding the scan's working memory.
SCAN_BLOCK_ROWS = 8_192

#: Either §5.2 occurrence model: both expose ``masses(flat)``.
OccurrenceModel = NormalOccurrenceModel | CorrelatedOccurrenceModel


def row_blocks(n_rows: int) -> Iterator[slice]:
    """Consecutive slices of at most :data:`SCAN_BLOCK_ROWS` rows."""
    for start in range(0, n_rows, SCAN_BLOCK_ROWS):
        yield slice(start, start + SCAN_BLOCK_ROWS)


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


@dataclass(frozen=True)
class PlanDiscovery:
    """One distinct plan with the optimizer-call count at its discovery.

    The discovery log is the raw series behind Figure 11: coverage as a
    function of the optimizer-call budget.
    """

    plan: LogicalPlan
    at_call: int


class RobustLogicalSolution:
    """A set of robust logical plans over one parameter space.

    Parameters
    ----------
    query:
        The query the plans order.
    space:
        The parameter space the solution covers.
    plans:
        The distinct robust logical plans (order preserved, de-duplicated).
    verified_regions:
        Optional mapping from plan to the regions in which partitioning
        *verified* its Def. 1 robustness (WRP/ERP produce these).
    discoveries:
        Optional discovery log (plan, optimizer-call count) pairs.
    """

    def __init__(
        self,
        query: Query,
        space: ParameterSpace,
        plans: Iterable[LogicalPlan],
        *,
        verified_regions: Mapping[LogicalPlan, list[Region]] | None = None,
        discoveries: Iterable[PlanDiscovery] = (),
    ) -> None:
        unique: list[LogicalPlan] = []
        seen: set[LogicalPlan] = set()
        for plan in plans:
            if plan not in seen:
                seen.add(plan)
                unique.append(plan)
        if not unique:
            raise ValueError("a robust logical solution needs at least one plan")
        self._query = query
        self._space = space
        self._plans = tuple(unique)
        self._cost_model = PlanCostModel(query)
        self._verified_regions = {
            plan: list(regions) for plan, regions in (verified_regions or {}).items()
        }
        self._discoveries = tuple(discoveries)
        self._labels: IntArray | None = None
        self._sample: IntArray | None = None

    @property
    def query(self) -> Query:
        """The underlying query."""
        return self._query

    @property
    def space(self) -> ParameterSpace:
        """The parameter space this solution covers."""
        return self._space

    @property
    def plans(self) -> tuple[LogicalPlan, ...]:
        """The distinct robust logical plans, in discovery order."""
        return self._plans

    @property
    def cost_model(self) -> PlanCostModel:
        """Cost model shared by routing and weighting."""
        return self._cost_model

    @property
    def discoveries(self) -> tuple[PlanDiscovery, ...]:
        """Discovery log: (plan, optimizer-call count) per distinct plan."""
        return self._discoveries

    def verified_regions_of(self, plan: LogicalPlan) -> list[Region]:
        """Regions where partitioning verified the plan's robustness."""
        return list(self._verified_regions.get(plan, []))

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, plan: LogicalPlan) -> bool:
        return plan in set(self._plans)

    # ------------------------------------------------------------------
    # Routing (the runtime classifier's decision function)
    # ------------------------------------------------------------------

    def best_plan_at(self, point: Mapping[str, float]) -> LogicalPlan:
        """Cheapest plan in the solution at ``point``.

        This is the online classifier's decision (§3 "Robust load
        executor"): given the latest runtime statistics, route the next
        batch through the matching robust logical plan.  Ties break
        toward the lexicographically smaller ordering.
        """
        return min(
            self._plans,
            key=lambda plan: (self._cost_model.plan_cost(plan, point), plan.order),
        )

    # ------------------------------------------------------------------
    # Plan cells (one blocked scan)
    # ------------------------------------------------------------------

    @property
    def uses_sampled_grid(self) -> bool:
        """True when the scan visits a sample, not the full grid."""
        return self._space.n_points > MAX_SCAN_POINTS

    @property
    def scanned_points(self) -> int:
        """Number of grid points the robustness scan visits."""
        return min(self._space.n_points, MAX_SCAN_POINTS)

    def _scanned_flat(self) -> IntArray:
        """Row-major flat indices of the scanned grid points, ascending.

        The whole grid when it is small; otherwise a fixed-seed uniform
        sample of :data:`MAX_SCAN_POINTS` distinct points.
        """
        n_points = self._space.n_points
        if not self.uses_sampled_grid:
            return np.arange(n_points)
        if self._sample is None:
            rng = derive_rng(20121107)  # fixed: results must be stable
            self._sample = np.sort(
                rng.choice(n_points, size=MAX_SCAN_POINTS, replace=False)
            )
        return self._sample

    def _plan_labels(self) -> IntArray:
        """Index into :attr:`plans` of the cheapest plan at each scanned point.

        One blocked scan: per block of points, every plan's cost, then
        one argmin with the same ``(cost, plan.order)`` tie-break as
        :meth:`best_plan_at`.
        """
        if self._labels is None:
            flat = self._scanned_flat()
            names = list(self._space.names)
            ranks = order_ranks(self._plans)
            labels = np.empty(len(flat), dtype=np.intp)
            for rows in row_blocks(len(flat)):
                values = self._space.points_matrix(flat[rows])
                costs = np.vstack(
                    [
                        self._cost_model.plan_costs(plan, values, names)
                        for plan in self._plans
                    ]
                )
                labels[rows] = lexicographic_argmin([costs], ranks)
            self._labels = labels
        return self._labels

    def _cells_of(self, plan: LogicalPlan) -> IntArray:
        """Sorted flat indices of the scanned points where ``plan`` wins."""
        rows = np.flatnonzero(self._plan_labels() == self._plans.index(plan))
        return self._scanned_flat()[rows] if self.uses_sampled_grid else rows

    def plan_cells(self) -> dict[LogicalPlan, IntArray]:
        """Partition of the scanned grid points by cheapest plan.

        Every scanned point is assigned to exactly one plan — each
        plan's effective region of responsibility at runtime — given as
        sorted row-major flat indices.  On spaces larger than
        :data:`MAX_SCAN_POINTS` only the sampled points are assigned.
        """
        return {plan: self._cells_of(plan) for plan in self._plans}

    # ------------------------------------------------------------------
    # Plan weights (§5.2)
    # ------------------------------------------------------------------

    def plan_weights(
        self, occurrence: OccurrenceModel | None = None
    ) -> dict[LogicalPlan, float]:
        """Occurrence-probability weight of each plan's region.

        ``weight(lp) = Σ_{pnt ∈ area(lp)} Pr(pnt)`` with ``Pr`` from the
        normal occurrence model (§5.2).  Defaults to a fresh model with
        means at the estimate point.  On sampled grids each plan's
        sampled mass is scaled by (grid points / points scanned), an
        unbiased estimate; exact grids scale by exactly 1.
        """
        model = occurrence or NormalOccurrenceModel(self._space)
        labels = self._plan_labels()
        flat = self._scanned_flat()
        mass = np.zeros(len(self))
        for rows in row_blocks(len(flat)):
            block = model.masses(flat[rows])
            mass += np.bincount(labels[rows], weights=block, minlength=len(self))
        scale = self._space.n_points / len(labels)
        return {plan: scale * float(mass[i]) for i, plan in enumerate(self._plans)}

    def area_fractions(self) -> dict[LogicalPlan, float]:
        """Fraction of scanned grid points in each plan's cell set."""
        labels = self._plan_labels()
        counts = np.bincount(labels, minlength=len(self))
        return {
            plan: float(counts[i]) / len(labels) for i, plan in enumerate(self._plans)
        }

    # ------------------------------------------------------------------
    # Worst-case operator loads (input to physical planning)
    # ------------------------------------------------------------------

    def _load_blocks(
        self, plan: LogicalPlan, cells: IntArray
    ) -> Iterator[tuple[IntArray, dict[int, FloatArray]]]:
        """``plan``'s per-operator loads over ``cells``, in row blocks.

        Yields each block's cells with their ``operator_loads_batch``.
        """
        names = list(self._space.names)
        for rows in row_blocks(len(cells)):
            values = self._space.points_matrix(cells[rows])
            yield cells[rows], self._cost_model.operator_loads_batch(
                plan, values, names
            )

    def worst_case_loads(self, plan: LogicalPlan) -> dict[int, float]:
        """Max per-operator load of ``plan`` over its region cells.

        The physical plan must fit each supported plan's operators on
        their machines at *any* point of the plan's region (Def. 3), so
        feasibility uses the per-operator maximum over the region.
        Falls back to the whole-space top corner for a plan with no
        cells of its own (possible when another plan dominates it
        everywhere) and on sampled grids, where a sample's maximum may
        fall short.  The corner bounds every point: operator loads are
        monotone in the rate and in every selectivity.
        """
        cells = self._cells_of(plan)
        if self.uses_sampled_grid or not len(cells):
            point = self._space.full_region().pnt_hi
            return dict(self._cost_model.operator_loads(plan, point))
        worst = dict.fromkeys(self._query.operator_ids, -np.inf)
        for _, batch in self._load_blocks(plan, cells):
            for op_id in worst:
                worst[op_id] = max(worst[op_id], float(batch[op_id].max()))
        return worst

    def expected_loads(
        self, plan: LogicalPlan, occurrence: OccurrenceModel | None = None
    ) -> dict[int, float]:
        """Occurrence-weighted mean per-operator load over a plan's cells.

        The *typical* load profile the plan imposes at runtime —
        distinct from :meth:`worst_case_loads`, whose independent
        per-operator maxima describe a point that never actually occurs.
        Placement balancing wants typical loads; feasibility wants the
        worst case.
        """
        model = occurrence or NormalOccurrenceModel(self._space)
        cells = self._cells_of(plan)
        if not len(cells):
            point = self._space.point_at(
                tuple(s // 2 for s in self._space.shape)
            )
            return self._cost_model.operator_loads(plan, point)
        weighted = dict.fromkeys(self._query.operator_ids, 0.0)
        plain = dict.fromkeys(self._query.operator_ids, 0.0)
        mass = 0.0
        for block, batch in self._load_blocks(plan, cells):
            weights = model.masses(block)
            mass += float(weights.sum())
            for op_id in weighted:
                weighted[op_id] += float(batch[op_id] @ weights)
                plain[op_id] += float(batch[op_id].sum())
        if mass <= 0:
            # Degenerate: cells carry no occurrence mass; plain mean.
            return {op_id: load / len(cells) for op_id, load in plain.items()}
        return {op_id: load / mass for op_id, load in weighted.items()}

    def __repr__(self) -> str:
        labels = ", ".join(plan.label for plan in self._plans[:4])
        suffix = ", ..." if len(self._plans) > 4 else ""
        return (
            f"RobustLogicalSolution({len(self._plans)} plans over "
            f"{self._space.n_points} grid points: {labels}{suffix})"
        )
