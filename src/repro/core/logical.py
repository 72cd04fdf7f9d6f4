"""Robust logical solutions: plan sets covering the parameter space.

A *robust logical solution* ``LP_i`` (Def. 2 / §2.4) is a set of
logical plans such that for (almost) every point of the parameter
space, at least one plan in the set is ε-robust there.  Beyond holding
the plans, this class derives what the rest of the pipeline needs:

* the **plan-cell partition** — each grid point labelled with the plan
  that is cheapest there (the runtime classifier's routing rule), the
  "robust region" behind plan weights and loads;
* **plan weights** — the occurrence-probability mass of each plan's
  region (§5.2 Example 4), the priority order in which GreedyPhy and
  OptPrune try to support plans; and
* each plan's **worst-case** (Def. 3) and **typical** per-operator
  loads over its cells.

All of them come from one fused pass over row-major flat grid indices,
in blocks: per block, one value matrix, every plan's cost, one label
argmin, one occurrence-mass lookup and each plan's loads over its own
rows.  The plan-label array is kept on its own, so
:meth:`RobustLogicalSolution.plan_cells` alone needs only the label
part.  The pass is exact up to :data:`MAX_SCAN_POINTS` grid points;
above it, the pass visits a fixed-seed sample, weights become
estimates, and worst-case loads come from the space's top corner,
which bounds every point.  The pass's block iterator
(:func:`row_blocks`) also drives the ε-coverage harness in
:mod:`repro.core.robustness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.core.correlation import CorrelatedOccurrenceModel
from repro.core.occurrence import NormalOccurrenceModel
from repro.core.parameter_space import ParameterSpace, Region
from repro.query.cost import PlanCostModel
from repro.query.model import Query
from repro.query.plans import LogicalPlan
from repro.util.rng import derive_rng
from repro.util.types import FloatArray, IntArray

__all__ = ["RobustLogicalSolution", "PlanDiscovery"]

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


@dataclass(frozen=True)
class _PassResult:
    """The folds of one fused pass, per plan index, for one occurrence model.

    ``mass`` and ``counts`` are each plan's scanned occurrence mass and
    cell count; ``worst``, ``weighted`` and ``plain`` are ``(n_plans,
    n_operators)`` per-operator maxima, mass-weighted sums and plain
    sums of the plan's loads over its cells, operators in
    ``query.operator_ids`` order.
    """

    occurrence: OccurrenceModel
    mass: FloatArray
    counts: IntArray
    worst: FloatArray
    weighted: FloatArray
    plain: FloatArray


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
        #: Plan indices sorted by ``plan.order``: the label tie-break.
        self._by_rank = np.array(
            sorted(range(len(unique)), key=lambda i: unique[i].order), dtype=np.intp
        )
        self._labels: IntArray | None = None
        self._sample: IntArray | None = None
        self._default_occurrence: NormalOccurrenceModel | None = None
        self._pass: _PassResult | None = None

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
    # Plan cells (the label part of the pass)
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

    def _label_block(self, values: FloatArray, names: list[str]) -> IntArray:
        """Index of the cheapest plan at each row of a value block.

        Cost rows are stacked in ``plan.order`` rank order and
        ``np.argmin`` takes the first minimum, so an exact cost tie goes
        to the smaller ``plan.order`` — the ``(cost, plan.order)`` key of
        :meth:`best_plan_at`.
        """
        costs = np.vstack(
            [
                self._cost_model.plan_costs(self._plans[i], values, names)
                for i in self._by_rank
            ]
        )
        return self._by_rank[np.argmin(costs, axis=0)]

    def _plan_labels(self) -> IntArray:
        """Index into :attr:`plans` of the cheapest plan at each scanned point.

        The label part of the pass alone, for callers that need only
        the cells; a later full pass reuses it.
        """
        if self._labels is None:
            flat = self._scanned_flat()
            names = list(self._space.names)
            labels = np.empty(len(flat), dtype=np.intp)
            for rows in row_blocks(len(flat)):
                values = self._space.points_matrix(flat[rows])
                labels[rows] = self._label_block(values, names)
            labels.setflags(write=False)
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
    # The fused pass: weights, worst-case and typical loads
    # ------------------------------------------------------------------

    def _occurrence(self, occurrence: OccurrenceModel | None) -> OccurrenceModel:
        """``occurrence``, or this solution's one default model: a normal
        with means at the estimate point."""
        if occurrence is not None:
            return occurrence
        if self._default_occurrence is None:
            self._default_occurrence = NormalOccurrenceModel(self._space)
        return self._default_occurrence

    def _fused_pass(self, occurrence: OccurrenceModel | None) -> _PassResult:
        """One walk over the scanned points, memoized per occurrence model.

        Per block: one value matrix, the labels (unless already kept),
        one ``masses`` call, the weights' ``bincount``, and each plan's
        loads over its own rows only, folded into per-operator maxima
        and sums.  Blocks group weights exactly as the label-only scan
        does, so weights do not depend on which ran first.
        """
        model = self._occurrence(occurrence)
        if self._pass is not None and self._pass.occurrence is model:
            return self._pass
        flat = self._scanned_flat()
        names = list(self._space.names)
        op_ids = self._query.operator_ids
        n_plans = len(self._plans)
        kept = self._labels
        labels = np.empty(len(flat), dtype=np.intp) if kept is None else kept
        mass = np.zeros(n_plans)
        worst = np.full((n_plans, len(op_ids)), -np.inf)
        weighted = np.zeros((n_plans, len(op_ids)))
        plain = np.zeros((n_plans, len(op_ids)))
        for rows in row_blocks(len(flat)):
            block = flat[rows]
            values = self._space.points_matrix(block)
            if kept is None:
                labels[rows] = self._label_block(values, names)
            block_labels = labels[rows]
            masses = model.masses(block)
            mass += np.bincount(block_labels, weights=masses, minlength=n_plans)
            for i, plan in enumerate(self._plans):
                mine = np.flatnonzero(block_labels == i)
                if not len(mine):
                    continue
                batch = self._cost_model.operator_loads_batch(
                    plan, values[mine], names
                )
                loads = np.vstack([batch[op_id] for op_id in op_ids])
                worst[i] = np.maximum(worst[i], loads.max(axis=1))
                weighted[i] += loads @ masses[mine]
                plain[i] += loads.sum(axis=1)
        if kept is None:
            labels.setflags(write=False)
            self._labels = labels
        self._pass = _PassResult(
            occurrence=model,
            mass=mass,
            counts=np.bincount(labels, minlength=n_plans),
            worst=worst,
            weighted=weighted,
            plain=plain,
        )
        return self._pass

    def plan_weights(
        self, occurrence: OccurrenceModel | None = None
    ) -> dict[LogicalPlan, float]:
        """Occurrence-probability weight of each plan's region.

        ``weight(lp) = Σ_{pnt ∈ area(lp)} Pr(pnt)`` with ``Pr`` from the
        normal occurrence model (§5.2).  Defaults to a normal model with
        means at the estimate point.  On sampled grids each plan's
        sampled mass is scaled by (grid points / points scanned), an
        unbiased estimate; exact grids scale by exactly 1.
        """
        mass = self._fused_pass(occurrence).mass
        scale = self._space.n_points / self.scanned_points
        return {plan: scale * float(mass[i]) for i, plan in enumerate(self._plans)}

    def area_fractions(self) -> dict[LogicalPlan, float]:
        """Fraction of scanned grid points in each plan's cell set."""
        labels = self._plan_labels()
        counts = np.bincount(labels, minlength=len(self))
        return {
            plan: float(counts[i]) / len(labels) for i, plan in enumerate(self._plans)
        }

    def worst_case_loads(self, plan: LogicalPlan) -> dict[int, float]:
        """Max per-operator load of ``plan`` over its region cells.

        The physical plan must fit each supported plan's operators on
        their machines at *any* point of the plan's region (Def. 3), so
        feasibility uses the per-operator maximum over the region.
        Falls back to the whole-space top corner for a plan with no
        cells of its own (possible when another plan dominates it
        everywhere) and on sampled grids, where a sample's maximum may
        fall short.  The corner bounds every point: operator loads are
        monotone in the rate and in every selectivity.  The maxima do
        not depend on the occurrence model, so any pass already run
        serves; otherwise the pass runs with the default model.
        """
        index = self._plans.index(plan)
        if not self.uses_sampled_grid:
            result = self._pass or self._fused_pass(None)
            if result.counts[index]:
                return dict(zip(self._query.operator_ids, result.worst[index].tolist()))
        point = self._space.full_region().pnt_hi
        return dict(self._cost_model.operator_loads(plan, point))

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
        index = self._plans.index(plan)
        result = self._fused_pass(occurrence)
        if not result.counts[index]:
            point = self._space.point_at(
                tuple(s // 2 for s in self._space.shape)
            )
            return self._cost_model.operator_loads(plan, point)
        if result.mass[index] <= 0:
            # Degenerate: cells carry no occurrence mass; plain mean.
            means = result.plain[index] / result.counts[index]
        else:
            means = result.weighted[index] / result.mass[index]
        return dict(zip(self._query.operator_ids, means.tolist()))

    def __repr__(self) -> str:
        labels = ", ".join(plan.label for plan in self._plans[:4])
        suffix = ", ..." if len(self._plans) > 4 else ""
        return (
            f"RobustLogicalSolution({len(self._plans)} plans over "
            f"{self._space.n_points} grid points: {labels}{suffix})"
        )
