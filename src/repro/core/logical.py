"""Robust logical solutions: plan sets covering the parameter space.

A *robust logical solution* ``LP_i`` (Def. 2 / §2.4) is a set of
logical plans such that for (almost) every point of the parameter
space, at least one plan in the set is ε-robust there.  Beyond holding
the plans, this class provides the two derived artifacts the rest of
the pipeline needs:

* the **plan-cell partition** — each grid point assigned to the plan
  that is cheapest there, which is both the runtime classifier's
  routing table and the "robust region" used for plan weights; and
* **plan weights** — the occurrence-probability mass of each plan's
  region (§5.2 Example 4), the priority order in which GreedyPhy and
  OptPrune try to support plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.cost_tensor import CostTensorCache, lexicographic_argmin
from repro.core.occurrence import NormalOccurrenceModel
from repro.core.parameter_space import GridIndex, ParameterSpace, Region
from repro.query.cost import PlanCostModel
from repro.query.model import Query
from repro.query.plans import LogicalPlan
from repro.util.rng import derive_rng
from repro.query.statistics import StatPoint

__all__ = ["RobustLogicalSolution", "PlanDiscovery"]

#: Above this many grid points, per-cell scans switch to a deterministic
#: uniform sample (high-dimensional spaces are exponentially large).
MAX_EXACT_GRID_POINTS = 20_000

#: Sample size used for large grids.
GRID_SAMPLE_SIZE = 4_096


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
        self._cells_cache: dict[LogicalPlan, set[GridIndex]] | None = None
        self._tensor_cache: CostTensorCache | None = None

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
    def cost_cache(self) -> CostTensorCache:
        """The shared dense cost/load tensor cache over this plan set.

        Lazily built; on spaces above :data:`MAX_EXACT_GRID_POINTS` the
        per-cell scans below use the sampled-matrix path instead, so
        accessing this on a huge space is the caller's (memory)
        decision.
        """
        if self._tensor_cache is None:
            self._tensor_cache = CostTensorCache(
                self._space, self._cost_model, self._plans
            )
        return self._tensor_cache

    @property
    def cost_tensor_built(self) -> bool:
        """True once a dense cost or load tensor has been computed.

        The sampled-grid path on large spaces never computes one.
        """
        return self._tensor_cache is not None and self._tensor_cache.built

    @property
    def tensor_build_seconds(self) -> float:
        """Seconds spent building dense cost/load tensors so far.

        0.0 when no per-cell scan has forced the cache yet; used by the
        CLI's ``compile --profile`` breakdown.
        """
        if self._tensor_cache is None:
            return 0.0
        return self._tensor_cache.build_seconds

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

    def _representative_indices(self) -> list[GridIndex]:
        """Grid indices scanned by per-cell operations.

        The full grid when it is small; otherwise a deterministic
        uniform sample of :data:`GRID_SAMPLE_SIZE` indices (always
        including the space corners), since high-dimensional grids are
        exponentially large.
        """
        if self._space.n_points <= MAX_EXACT_GRID_POINTS:
            return list(self._space.grid_indices())
        rng = derive_rng(20121107)  # fixed: results must be stable
        shape = self._space.shape
        sample = {
            tuple(int(rng.integers(0, s)) for s in shape)
            for _ in range(GRID_SAMPLE_SIZE)
        }
        full = self._space.full_region()
        sample.add(full.lo)
        sample.add(full.hi)
        return sorted(sample)

    @property
    def uses_sampled_grid(self) -> bool:
        """True when per-cell scans run on a sample, not the full grid."""
        return self._space.n_points > MAX_EXACT_GRID_POINTS

    def plan_cells(self) -> dict[LogicalPlan, set[GridIndex]]:
        """Partition of (representative) grid points by cheapest plan.

        Every scanned grid point is assigned to exactly one plan — each
        plan's effective region of responsibility at runtime.  On
        spaces larger than :data:`MAX_EXACT_GRID_POINTS` the scan uses
        the deterministic sample of :meth:`_representative_indices`.

        Computed as one argmin over the dense cost tensor (with the
        same ``(cost, plan.order)`` tie-break as :meth:`best_plan_at`)
        rather than a scalar cost call per (plan, point) pair.
        """
        if self._cells_cache is None:
            indices = self._representative_indices()
            if self.uses_sampled_grid:
                # Batch-evaluate only the sampled rows; never build the
                # full (exponentially large) grid tensor.
                matrix = self._space.points_matrix(indices)
                names = list(self._space.names)
                costs = np.vstack(
                    [
                        self._cost_model.plan_costs(plan, matrix, names)
                        for plan in self._plans
                    ]
                )
                best = lexicographic_argmin([costs], self.cost_cache.plan_ranks)
            else:
                # Exact grids scan every index in row-major order, which
                # is exactly the cost tensor's column order.
                best = self.cost_cache.best_plan_per_point()
            cells: dict[LogicalPlan, set[GridIndex]] = {p: set() for p in self._plans}
            for index, plan_index in zip(indices, best):
                cells[self._plans[plan_index]].add(index)
            self._cells_cache = cells
        return {plan: set(cells) for plan, cells in self._cells_cache.items()}

    # ------------------------------------------------------------------
    # Plan weights (§5.2)
    # ------------------------------------------------------------------

    def plan_weights(
        self, occurrence: NormalOccurrenceModel | None = None
    ) -> dict[LogicalPlan, float]:
        """Occurrence-probability weight of each plan's region.

        ``weight(lp) = Σ_{pnt ∈ area(lp)} Pr(pnt)`` with ``Pr`` from the
        normal occurrence model (§5.2).  Defaults to a fresh model with
        means at the estimate point.
        """
        model = occurrence or NormalOccurrenceModel(self._space)
        cells = self.plan_cells()
        scanned = sum(len(c) for c in cells.values())
        # Unbiased estimator on sampled grids: scale each plan's sampled
        # mass by (grid points / points scanned); exact grids scale by 1.
        scale = self._space.n_points / scanned if scanned else 1.0
        return {
            plan: scale * sum(model.cell_probability(index) for index in plan_cells)
            for plan, plan_cells in cells.items()
        }

    def area_fractions(self) -> dict[LogicalPlan, float]:
        """Fraction of scanned grid points in each plan's cell set."""
        cells = self.plan_cells()
        scanned = sum(len(c) for c in cells.values())
        if scanned == 0:
            return {plan: 0.0 for plan in self._plans}
        return {plan: len(c) / scanned for plan, c in cells.items()}

    # ------------------------------------------------------------------
    # Worst-case operator loads (input to physical planning)
    # ------------------------------------------------------------------

    def worst_case_loads(self, plan: LogicalPlan) -> dict[int, float]:
        """Max per-operator load of ``plan`` over its region cells.

        The physical plan must fit each supported plan's operators on
        their machines at *any* point of the plan's region, so
        feasibility uses the per-operator maximum over the region.
        Falls back to the whole-space top corner for a plan with no
        cells of its own (possible when another plan dominates it
        everywhere).
        """
        cells = self.plan_cells().get(plan, set())
        if not cells:
            point = self._space.full_region().pnt_hi
            return dict(self._cost_model.operator_loads(plan, point))
        matrix = self._space.points_matrix(sorted(cells))
        batch = self._cost_model.operator_loads_batch(
            plan, matrix, list(self._space.names)
        )
        return {
            op_id: float(batch[op_id].max())
            for op_id in self._query.operator_ids
        }

    def expected_loads(
        self, plan: LogicalPlan, occurrence: NormalOccurrenceModel | None = None
    ) -> dict[int, float]:
        """Occurrence-weighted mean per-operator load over a plan's cells.

        The *typical* load profile the plan imposes at runtime —
        distinct from :meth:`worst_case_loads`, whose independent
        per-operator maxima describe a point that never actually occurs.
        Placement balancing wants typical loads; feasibility wants the
        worst case.
        """
        model = occurrence or NormalOccurrenceModel(self._space)
        cells = self.plan_cells().get(plan, set())
        if not cells:
            point = self._space.point_at(
                tuple(s // 2 for s in self._space.shape)
            )
            return self._cost_model.operator_loads(plan, point)
        ordered = sorted(cells)
        weights = np.fromiter(
            (model.cell_probability(index) for index in ordered),
            dtype=float,
            count=len(ordered),
        )
        matrix = self._space.points_matrix(ordered)
        batch = self._cost_model.operator_loads_batch(
            plan, matrix, list(self._space.names)
        )
        mass = float(weights.sum())
        if mass <= 0:
            # Degenerate: cells carry no occurrence mass; plain mean.
            return {
                op_id: float(batch[op_id].mean())
                for op_id in self._query.operator_ids
            }
        return {
            op_id: float(batch[op_id] @ weights) / mass
            for op_id in self._query.operator_ids
        }

    def __repr__(self) -> str:
        labels = ", ".join(plan.label for plan in self._plans[:4])
        suffix = ", ..." if len(self._plans) > 4 else ""
        return (
            f"RobustLogicalSolution({len(self._plans)} plans over "
            f"{self._space.n_points} grid points: {labels}{suffix})"
        )
