"""Weight assignment in the parameter space (§4.2).

Partitioning needs to pick *good* split points: points where a not-yet-
discovered robust plan is most likely to live.  The paper's two
principles drive the weight function:

1. Nearby points likely share a robust plan, so weight should *decay*
   with distance from the region's ``pntLo``.
2. A plan is less likely to be robust where its cost surface is steep,
   so weight should *grow* with the cost slope.

Computing a weight for every point of a d-dimensional region is
``O(n^d)``, so — following the paper — each dimension is treated
independently: a point's weight is the sum of per-dimension projected
weights, and because that sum is separable, the maximum-weight point is
simply the per-dimension argmax.  This keeps weight assignment at
``O(n·d)`` cost-gradient evaluations per region.

The *re-assignment* optimisation (§4.2 "Weight Re-Assignment Strategy")
lets a sub-region inherit its parent's weight arrays when the predicted
corner plan matched the optimizer's actual answer; the partitioning
algorithms use :meth:`RegionWeights.slice_to` for that and
:class:`WeightAssigner` counts how many recomputations were skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.parameter_space import GridIndex, ParameterSpace, Region
from repro.query.cost import PlanCostModel, Value
from repro.query.plans import LogicalPlan
from repro.util.types import FloatArray

__all__ = ["RegionWeights", "WeightAssigner"]


@dataclass(frozen=True)
class RegionWeights:
    """Per-dimension weight arrays over a region's grid indices.

    ``per_dim[i][k]`` is the weight of index ``region.lo[i] + k`` along
    dimension ``i``.  The total weight of a grid point is the sum of its
    per-dimension weights (the separable model of §4.2).
    """

    region: Region
    per_dim: tuple[FloatArray, ...]

    def best_partition_point(self) -> GridIndex | None:
        """Maximum-weight interior point usable for splitting.

        Along each splittable dimension the argmax over split candidates
        ``[lo..hi-1]`` is chosen; flat dimensions stay at ``lo``.
        Returns ``None`` when no dimension can split (single cell).
        """
        if not self.region.can_split():
            return None
        point = []
        for dim, weights in enumerate(self.per_dim):
            lo = self.region.lo[dim]
            hi = self.region.hi[dim]
            if hi == lo:
                point.append(lo)
                continue
            candidates = weights[: hi - lo]  # indices lo..hi-1
            point.append(lo + int(np.argmax(candidates)))
        return tuple(point)

    def slice_to(self, sub_region: Region) -> "RegionWeights":
        """Inherit these weights restricted to ``sub_region``.

        Used when the §4.2 re-assignment condition says the parent's
        weights are still accurate for the child — no recomputation.
        """
        sliced = []
        for dim, weights in enumerate(self.per_dim):
            offset = sub_region.lo[dim] - self.region.lo[dim]
            length = sub_region.hi[dim] - sub_region.lo[dim] + 1
            sliced.append(weights[offset : offset + length])
        return RegionWeights(sub_region, tuple(sliced))


class WeightAssigner:
    """Computes §4.2 weights; tracks computations and skips.

    The weight of index ``x`` projected on dimension ``i`` is

        w_i(x) = min(|∂cost(lp_hi)/∂d_i|, |∂cost(lp_lo)/∂d_i|) / dist_i(x)

    evaluated at the projected point (dimension ``i`` at ``x``, other
    dimensions at the region's ``pntLo`` values), where ``dist_i`` is
    the normalised projected distance from ``pntLo`` plus one cell so
    the corner itself stays finite.
    """

    def __init__(self, space: ParameterSpace, cost_model: PlanCostModel) -> None:
        self._space = space
        self._cost_model = cost_model
        self._computed = 0
        self._skipped = 0

    @property
    def computations(self) -> int:
        """Number of full per-region weight computations performed."""
        return self._computed

    @property
    def skips(self) -> int:
        """Number of recomputations avoided via weight inheritance."""
        return self._skipped

    def record_skip(self) -> None:
        """Note one inherited (not recomputed) region weight assignment."""
        self._skipped += 1

    def assign(
        self, region: Region, plan_lo: LogicalPlan, plan_hi: LogicalPlan
    ) -> RegionWeights:
        """Compute fresh per-dimension weights for ``region``.

        Each dimension's projected points form one batch: the gradient
        of both corner plans is evaluated with a single vectorized
        kernel call per plan instead of one scalar gradient per grid
        index.
        """
        self._computed += 1
        names = list(self._space.names)
        corner_values = [
            d.value(region.lo[i]) for i, d in enumerate(self._space.dimensions)
        ]
        per_dim: list[FloatArray] = []
        for dim_index, dimension in enumerate(self._space.dimensions):
            lo = region.lo[dim_index]
            hi = region.hi[dim_index]
            cell = dimension.cell_width
            width = dimension.width if dimension.width > 0 else 1.0
            # Projected points: dimension ``dim_index`` sweeps the
            # region's index range, every other dimension pinned at the
            # region's pntLo value.
            values = dimension.values_array()[lo : hi + 1]
            columns: list[Value] = list(corner_values)
            columns[dim_index] = values
            grad_lo = self._cost_model.gradients_batch(plan_lo, columns, names)
            grad_hi = self._cost_model.gradients_batch(plan_hi, columns, names)
            slope = np.minimum(
                np.abs(grad_lo[:, dim_index]), np.abs(grad_hi[:, dim_index])
            )
            distance = (values - values[0] + max(cell, 1e-9)) / width
            per_dim.append(slope / distance)
        return RegionWeights(region, tuple(per_dim))

    def uniform(self, region: Region) -> RegionWeights:
        """Cost-agnostic weights peaking at the region midpoint.

        The ablation baseline: with no slope/distance knowledge the
        natural split is the median, so weights form a triangle with its
        apex at the middle of each dimension.  The ablation bench
        contrasts this against the §4.2 slope/distance model.
        """
        self._computed += 1
        per_dim = []
        for lo, hi in zip(region.lo, region.hi):
            length = hi - lo + 1
            mid = (length - 1) / 2.0
            per_dim.append(
                np.array([1.0 + mid - abs(k - mid) for k in range(length)])
            )
        return RegionWeights(region, tuple(per_dim))
