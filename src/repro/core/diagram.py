"""Plan diagrams over the parameter space (§7's parametric-QO lens).

A *plan diagram* (Reddy & Haritsa, VLDB'05) is the partition of a
parameter space by which plan is optimal at each point.  The paper
positions RLD against plan-diagram *reduction* — merging plans whose
costs are "close enough" (Harish et al., PVLDB'08) — so this module
provides both artifacts for analysis and debugging:

* :func:`compute_plan_diagram` — the exact diagram of a space under a
  black-box optimizer (one call per grid cell; this is the expensive
  object ERP exists to avoid computing).
* :meth:`PlanDiagram.reduce` — greedy ε-reduction: repeatedly swallow
  the smallest-area plan into a surviving plan that ε-covers every cell
  it owns, mirroring the plan-diagram-reduction semantics.
* :meth:`PlanDiagram.render` — a fixed-width ASCII map of a 2-D
  diagram, one letter per grid cell, for inspection in terminals and
  docstrings (the textual analogue of the paper's Figure 3/6/8 plots).
"""

from __future__ import annotations

from dataclasses import dataclass
from string import ascii_uppercase, ascii_lowercase

import numpy as np

from repro.core.parameter_space import ParameterSpace
from repro.core.robustness import robust_mask
from repro.query.cost import PlanCostModel
from repro.query.optimizer import PointOptimizer
from repro.query.plans import LogicalPlan
from repro.util.types import FloatArray, IntArray

__all__ = ["PlanDiagram", "compute_plan_diagram"]

#: Cell glyphs for rendering: 52 distinct letters, then '#'.
_GLYPHS = ascii_uppercase + ascii_lowercase


def _by_area(
    candidates: tuple[LogicalPlan, ...], labels: IntArray
) -> tuple[tuple[LogicalPlan, ...], IntArray]:
    """Plans owning cells, largest region first, and labels into them.

    ``labels`` index ``candidates``; plans with no cell are dropped and
    ties in area break toward the smaller ``plan.order``.
    """
    counts = np.bincount(labels, minlength=len(candidates))
    order = sorted(
        np.flatnonzero(counts).tolist(),
        key=lambda i: (-counts[i], candidates[i].order),
    )
    relabel = np.empty(len(candidates), dtype=np.intp)
    relabel[order] = np.arange(len(order))
    return tuple(candidates[i] for i in order), relabel[labels]


@dataclass(frozen=True)
class PlanDiagram:
    """Which plan is optimal at each grid cell, with its cost there.

    ``plans`` are the distinct plans, largest region first (ties by
    ``plan.order``).  ``labels`` and ``optimal_costs`` hold one entry
    per grid cell in row-major flat order; ``labels[k]`` indexes
    ``plans``.
    """

    space: ParameterSpace
    plans: tuple[LogicalPlan, ...]
    labels: IntArray
    optimal_costs: FloatArray
    cost_model: PlanCostModel

    @property
    def cardinality(self) -> int:
        """Number of distinct optimal plans in the space."""
        return len(self.plans)

    def area_of(self, plan: LogicalPlan) -> float:
        """Fraction of grid cells where ``plan`` is optimal."""
        if plan not in self.plans:
            return 0.0
        owned = int(np.count_nonzero(self.labels == self.plans.index(plan)))
        return owned / self.space.n_points

    def reduce(self, epsilon: float) -> "PlanDiagram":
        """Greedy ε-reduction of the diagram.

        Repeatedly retire the smallest-area plan whose every cell can
        be served by some single surviving plan within ``(1 + ε)`` of
        the optimal cost there; the swallowing plan takes over the
        cells.  This is the plan-diagram-reduction operation the paper
        contrasts ERP against: it needs the *full* diagram up front,
        which is exactly the cost ERP avoids.
        """
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        labels = self.labels.copy()
        masks = [robust_mask(plan, self, epsilon) for plan in self.plans]
        changed = True
        while changed:
            changed = False
            counts = np.bincount(labels, minlength=len(self.plans))
            survivors = sorted(
                np.flatnonzero(counts).tolist(),
                key=lambda i: (counts[i], self.plans[i].order),
            )
            for victim in survivors:
                cells = labels == victim
                heir = next(
                    (h for h in survivors if h != victim and masks[h][cells].all()),
                    None,
                )
                if heir is not None:
                    labels[cells] = heir
                    changed = True
                    break
        plans, labels = _by_area(self.plans, labels)
        return PlanDiagram(
            self.space, plans, labels, self.optimal_costs, self.cost_model
        )

    def render(self, *, legend: bool = True) -> str:
        """ASCII map of a 2-D diagram (first dim = rows, second = columns).

        Raises for spaces that are not 2-D — higher-dimensional
        diagrams have no faithful flat rendering.
        """
        if self.space.n_dims != 2:
            raise ValueError(
                f"render() supports 2-D spaces only, got {self.space.n_dims}-D"
            )
        glyphs = [
            _GLYPHS[i] if i < len(_GLYPHS) else "#" for i in range(len(self.plans))
        ]
        grid = self.labels.reshape(self.space.shape)
        # Render with the second dimension on x and the first on y,
        # origin (lo, lo) at the bottom-left like the paper's figures.
        lines = ["".join(glyphs[label] for label in row) for row in grid[::-1]]
        if legend:
            lines.append("")
            for glyph, plan in zip(glyphs, self.plans):
                lines.append(
                    f"{glyph} = {plan.label}  (area {self.area_of(plan):.1%})"
                )
        return "\n".join(lines)


def compute_plan_diagram(
    space: ParameterSpace, optimizer: PointOptimizer
) -> PlanDiagram:
    """Exact plan diagram: one optimizer call per grid cell.

    This is the §7 baseline artifact — "it would be extremely expensive
    to compute such diagram" is the paper's motivation for ERP — so use
    it for analysis on small spaces, not inside the compile path.  It is
    also the ground truth every ε-coverage evaluation measures against.
    """
    found: dict[LogicalPlan, int] = {}
    labels = np.empty(space.n_points, dtype=np.intp)
    optimal_costs = np.empty(space.n_points)
    for flat, index in enumerate(space.grid_indices()):
        point = space.point_at(index)
        plan = optimizer.optimize(point)
        labels[flat] = found.setdefault(plan, len(found))
        optimal_costs[flat] = optimizer.plan_cost(plan, point)
    plans, labels = _by_area(tuple(found), labels)
    return PlanDiagram(space, plans, labels, optimal_costs, optimizer.cost_model)
