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

The labels are a running minimum: plans are priced one at a time in
``plan.order`` rank order, and a point's label moves only to a plan
strictly cheaper than the best so far, so an exact tie stays with the
smaller ``plan.order``.  An exact grid (up to :data:`MAX_SCAN_POINTS`
points) is priced on its product structure: each axis's frozen values,
reshaped to broadcast along that axis only, go through the cost
kernels slab by slab (:data:`SCAN_SLAB_ROWS`), so no coordinate matrix
is gathered and no whole-grid float temporary is built.  Above the
cap, the scan visits a fixed-seed sample, priced block by block on
the values at its grid indices; weights become estimates, and
worst-case loads come from the space's top corner, which bounds every
point.

Weights and loads come from one fold over blocks of
:data:`SCAN_BLOCK_ROWS` rows (:func:`row_blocks`), shared by both
scans.  Every block is its per-dimension grid-index columns: an exact
block expands them over its run of flat positions, a sampled block
unravels its positions once.  Occurrence masses and statistic values
are table lookups on those columns.  Each block is sorted by label
once, and each plan's loads over its own points are
written into one ``(n_operators, rows)`` buffer in
``query.operator_ids`` order and folded into maxima and sums, one
term per block, so every sum adds in the same order however the
labels were made.  The plan-label array is kept on its own, so
:meth:`RobustLogicalSolution.plan_cells` alone needs only the label
part.  The ε-coverage harness in :mod:`repro.core.robustness` prices
its slabs at the same :data:`SCAN_SLAB_ROWS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.core.correlation import CorrelatedOccurrenceModel
from repro.core.occurrence import NormalOccurrenceModel
from repro.core.parameter_space import ParameterSpace, Region
from repro.query.cost import PlanCostModel, Value
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
#: Every sum of the pass is grouped by these blocks.
SCAN_BLOCK_ROWS = 8_192

#: Most grid points in one slab of the exact label scan: the size of
#: its largest temporaries.  Room for one leading-axis slab of the
#: default q1 space (16,807 points).
SCAN_SLAB_ROWS = 1 << 15

#: Either §5.2 occurrence model: both expose ``masses(indices)``.
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
        self._by_rank.setflags(write=False)
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

    def _sampled_flat(self) -> IntArray:
        """Row-major flat indices of the sampled grid points, ascending.

        A fixed-seed uniform sample of :data:`MAX_SCAN_POINTS` distinct
        points, drawn once; exact grids are scanned without one.
        """
        if self._sample is None:
            rng = derive_rng(20121107)  # fixed: results must be stable
            sample = np.sort(
                rng.choice(self._space.n_points, size=MAX_SCAN_POINTS, replace=False)
            )
            sample.setflags(write=False)
            self._sample = sample
        return self._sample

    def _cheapest(
        self, rate: Value, sels: list[Value], shape: tuple[int, ...]
    ) -> IntArray:
        """Index of the cheapest plan at every point of a priced batch.

        ``rate`` and ``sels`` are resolved statistics that broadcast to
        ``shape``; labels come back flat, in C order.  Plans are priced
        one at a time in ``plan.order`` rank order against a running
        minimum, and a point's winner moves only to a plan strictly
        cheaper than the best so far, so an exact cost tie keeps the
        smaller ``plan.order`` — the ``(cost, plan.order)`` key the
        runtime classifier routes by.  Ranks only grow along the loop,
        so the winning rank is a running maximum of ``rank × cheaper``.
        """
        pricing = self._cost_model
        first, *rest = self._by_rank
        best = np.empty(shape)
        best[...] = pricing.cost_at(pricing.steps(self._plans[first]), rate, sels)
        costs = np.empty(shape)
        cheaper = np.empty(shape, dtype=bool)
        rank_type = np.min_scalar_type(len(rest)).type
        winner = np.zeros(shape, dtype=rank_type)
        for rank, i in enumerate(rest, start=1):
            costs[...] = pricing.cost_at(pricing.steps(self._plans[i]), rate, sels)
            np.less(costs, best, out=cheaper)
            np.minimum(best, costs, out=best)
            np.maximum(winner, cheaper * rank_type(rank), out=winner)
        return self._by_rank[winner.reshape(-1)]

    def _plan_labels(self) -> IntArray:
        """Index into :attr:`plans` of the cheapest plan at each scanned point.

        The label part of the pass alone, for callers that need only
        the cells; a later full pass reuses it.  An exact grid is priced
        slab by slab on its broadcast axis columns; a sample, block by
        block as :meth:`_blocks` walks it.
        """
        if self._labels is None and self.uses_sampled_grid:
            for _ in self._blocks():  # the sampled walk keeps its labels
                pass
        if self._labels is None:
            labels = np.empty(self._space.n_points, dtype=np.intp)
            for rows, columns in self._space.slabs(SCAN_SLAB_ROWS):
                labels[rows] = self._label_columns(columns)
            labels.setflags(write=False)
            self._labels = labels
        return self._labels

    def _label_columns(self, columns: tuple[FloatArray, ...]) -> IntArray:
        """:meth:`_cheapest` over value columns in space-dimension order."""
        rate, sels = self._cost_model.resolve_axes(columns, self._space.names)
        shape = np.broadcast_shapes(*(column.shape for column in columns))
        return self._cheapest(rate, sels, shape)

    def _cells_of(self, plan: LogicalPlan) -> IntArray:
        """Sorted flat indices of the scanned points where ``plan`` wins."""
        rows = np.flatnonzero(self._plan_labels() == self._plans.index(plan))
        return self._sampled_flat()[rows] if self.uses_sampled_grid else rows

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

    def _blocks(self) -> Iterator[tuple[IntArray, tuple[IntArray, ...]]]:
        """Each scan block's labels and per-dimension grid-index columns.

        Blocks are :func:`row_blocks` of the scanned points.  An exact
        grid expands its indices over each block's run of flat positions
        (:meth:`~repro.core.parameter_space.ParameterSpace.run_indices`);
        a sample unravels each block's positions once and, unless they
        are already kept, prices its labels from those indices' values.
        """
        space = self._space
        if not self.uses_sampled_grid:
            labels = self._plan_labels()
            for rows in row_blocks(space.n_points):
                yield labels[rows], space.run_indices(rows)
            return
        flat = self._sampled_flat()
        kept = self._labels
        labels = np.empty(len(flat), dtype=np.intp) if kept is None else kept
        for rows in row_blocks(len(flat)):
            indices = np.unravel_index(flat[rows], space.shape)
            if kept is None:
                labels[rows] = self._label_columns(space.values_at(indices))
            yield labels[rows], indices
        if kept is None:
            labels.setflags(write=False)
            self._labels = labels

    def _fused_pass(self, occurrence: OccurrenceModel | None) -> _PassResult:
        """One walk over the scanned points, memoized per occurrence model.

        Per block (:meth:`_blocks`): the masses at the block's indices,
        in block order, and the weights' ``bincount``; then one stable
        sort of the block by label, so each plan's points sit in one run
        in ascending flat order, and the values at the sorted indices.
        Each plan's loads over its run are written into one
        ``(n_operators, points)`` buffer in ``query.operator_ids`` order
        and folded into per-operator maxima and sums.  Exact and sampled
        scans share this fold; every sum is grouped by block, so results
        do not depend on whether the labels came first or with the pass.
        """
        model = self._occurrence(occurrence)
        if self._pass is not None and self._pass.occurrence is model:
            return self._pass
        space = self._space
        names = space.names
        pricing = self._cost_model
        n_plans, n_ops = len(self._plans), len(self._query.operator_ids)
        row_of = {op_id: row for row, op_id in enumerate(self._query.operator_ids)}
        #: Per plan: its steps, and each step's row in ``operator_ids`` order.
        layouts = [
            (pricing.steps(plan), [row_of[op_id] for op_id in plan])
            for plan in self._plans
        ]
        #: The narrowest label type: NumPy sorts it by radix.
        label_type = np.min_scalar_type(n_plans - 1)
        mass = np.zeros(n_plans)
        worst = np.full((n_plans, n_ops), -np.inf)
        weighted = np.zeros((n_plans, n_ops))
        plain = np.zeros((n_plans, n_ops))
        for block_labels, indices in self._blocks():
            masses = model.masses(indices)
            mass += np.bincount(block_labels, weights=masses, minlength=n_plans)
            ends = np.cumsum(np.bincount(block_labels, minlength=n_plans)).tolist()
            order = np.argsort(block_labels.astype(label_type), kind="stable")
            columns = space.values_at(tuple(index[order] for index in indices))
            masses = masses[order]
            start = 0
            for i, ((steps, op_rows), end) in enumerate(zip(layouts, ends)):
                if end == start:
                    continue
                run = slice(start, end)
                rate, sels = pricing.resolve_axes([c[run] for c in columns], names)
                loads = np.empty((n_ops, end - start))
                for row, load in zip(op_rows, pricing.loads_at(steps, rate, sels)):
                    loads[row] = load
                worst[i] = np.maximum(worst[i], loads.max(axis=1))
                weighted[i] += loads @ masses[run]
                plain[i] += loads.sum(axis=1)
                start = end
        labels = self._plan_labels()
        counts = np.bincount(labels, minlength=n_plans)
        for fold in (mass, counts, worst, weighted, plain):
            fold.setflags(write=False)
        self._pass = _PassResult(
            occurrence=model,
            mass=mass,
            counts=counts,
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
