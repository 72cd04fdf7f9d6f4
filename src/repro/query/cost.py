"""Plan cost model and cost-surface fitting (§2.3).

The cost of a pipeline plan at a statistics point is the classic
cascaded-selectivity form

    cost(lp, pnt) = λ · Σ_k  c_{π(k)} · Π_{j<k} σ_{π(j)}

— per-second CPU work summed over the operators in plan order, where an
operator's input cardinality is the driving rate λ thinned (or fanned
out) by all earlier operators' selectivities.  This is *multilinear* in
the uncertain parameters, exactly the polynomial family the paper fits
("cost(p, pnt) = c1·σi + c2·σj + c3·σi·σj + c4" for 2-D).

Two views are provided:

* :class:`PlanCostModel` — exact analytic costs, per-operator loads (the
  input to physical-plan feasibility), and gradients (the input to the
  §4.2 weight function).
* :class:`PlanCostSurface` — a fitted multilinear surface obtained from
  sampled (point, cost) observations via least squares, the paper's
  "standard surface-fitting techniques", for when costs come from
  measurements rather than a formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from repro.query.model import Query
from repro.query.plans import LogicalPlan
from repro.query.statistics import StatPoint, rate_param
from repro.util.types import FloatArray

__all__ = [
    "PlanCostModel",
    "PlanCostSurface",
    "multilinear_features",
    "fit_cost_surface",
    "surface_for_plan",
]


class PlanCostModel:
    """Exact analytic cost model for one query's logical plans.

    The model resolves each statistic from the :class:`StatPoint` when
    present and falls back to the operator/query default estimate, so
    callers may supply points over any subset of parameters (e.g. only
    the two uncertain dimensions of a 2-D parameter space).
    """

    def __init__(self, query: Query) -> None:
        self._query = query
        self._ops = {op.op_id: op for op in query.operators}
        self._rate_name = rate_param()

    @property
    def query(self) -> Query:
        """The query this model prices."""
        return self._query

    def _selectivity(self, op_id: int, point: Mapping[str, float]) -> float:
        op = self._ops[op_id]
        return float(point.get(op.selectivity_param, op.selectivity))

    def _rate(self, point: Mapping[str, float]) -> float:
        return float(point.get(self._rate_name, self._query.driving_rate))

    def plan_cost(self, plan: LogicalPlan, point: Mapping[str, float]) -> float:
        """Total per-second cost of ``plan`` at ``point``."""
        rate = self._rate(point)
        carried = 1.0
        total = 0.0
        for op_id in plan:
            op = self._ops[op_id]
            total += op.cost_per_tuple * carried
            carried *= self._selectivity(op_id, point)
        return rate * total

    def operator_loads(
        self, plan: LogicalPlan, point: Mapping[str, float]
    ) -> dict[int, float]:
        """Per-operator loads for all operators of ``plan`` at ``point``."""
        rate = self._rate(point)
        carried = 1.0
        loads: dict[int, float] = {}
        for op_id in plan:
            op = self._ops[op_id]
            loads[op_id] = rate * op.cost_per_tuple * carried
            carried *= self._selectivity(op_id, point)
        return loads

    def gradient(
        self, plan: LogicalPlan, point: Mapping[str, float]
    ) -> dict[str, float]:
        """Analytic partial derivatives of plan cost w.r.t. each parameter.

        Returns a mapping over the parameters *present in* ``point``.
        Because the cost is multilinear, ∂cost/∂σ_i is the cost of the
        suffix after operator i with σ_i factored out, and ∂cost/∂λ is
        cost/λ.  Used by the §4.2 slope-based weight function.
        """
        grads: dict[str, float] = {}
        cost = self.plan_cost(plan, point)
        rate = self._rate(point)
        if self._rate_name in point:
            grads[self._rate_name] = cost / rate
        # Partial w.r.t. σ_{π(k)}: rate · Π_{j<k, j≠k} σ · Σ over suffix.
        order = tuple(plan)
        for k, op_id in enumerate(order):
            name = self._ops[op_id].selectivity_param
            if name not in point:
                continue
            prefix_product = 1.0
            for earlier in order[:k]:
                prefix_product *= self._selectivity(earlier, point)
            suffix = 0.0
            carried = 1.0
            for later in order[k + 1 :]:
                suffix += self._ops[later].cost_per_tuple * carried
                carried *= self._selectivity(later, point)
            grads[name] = rate * prefix_product * suffix
        return grads

    # ------------------------------------------------------------------
    # Batch (vectorized) evaluation over dense point matrices
    # ------------------------------------------------------------------
    #
    # Each batch method evaluates one plan at every row of a
    # ``(n_points, len(names))`` value matrix in a handful of NumPy
    # column operations.  The accumulation order deliberately mirrors
    # the scalar loops above operation for operation, so batch results
    # are bitwise identical to calling the scalar method per row —
    # the equivalence the hypothesis suite pins down.

    def _column(
        self, param: str, default: float, names: Sequence[str], values: FloatArray
    ) -> FloatArray | float:
        """The values of ``param`` across the batch.

        Returns the matching matrix column when the parameter is one of
        ``names``, else the scalar default — the same "resolve from the
        point, fall back to the estimate" rule as the scalar path.
        """
        try:
            position = list(names).index(param)
        except ValueError:
            return default
        return values[:, position]

    def plan_costs(
        self, plan: LogicalPlan, values: FloatArray, names: Sequence[str]
    ) -> FloatArray:
        """Total per-second cost of ``plan`` at every point of a batch.

        ``values`` is a ``(n_points, len(names))`` matrix whose columns
        are the parameters listed in ``names`` (e.g. a block of
        :meth:`~repro.core.parameter_space.ParameterSpace.points_matrix`);
        parameters not present fall back to their defaults, exactly as
        in :meth:`plan_cost`.  Returns an ``(n_points,)`` cost vector.
        """
        values = np.asarray(values, dtype=float)
        names = list(names)
        rate = self._column(self._rate_name, self._query.driving_rate, names, values)
        carried = np.ones(values.shape[0])
        total = np.zeros(values.shape[0])
        for op_id in plan:
            op = self._ops[op_id]
            total += op.cost_per_tuple * carried
            carried = carried * self._column(
                op.selectivity_param, op.selectivity, names, values
            )
        return rate * total

    def operator_loads_batch(
        self, plan: LogicalPlan, values: FloatArray, names: Sequence[str]
    ) -> dict[int, FloatArray]:
        """Per-operator loads of ``plan`` at every point of a batch.

        The batch counterpart of :meth:`operator_loads`: a mapping from
        operator id to its ``(n_points,)`` load vector.
        """
        values = np.asarray(values, dtype=float)
        names = list(names)
        rate = self._column(self._rate_name, self._query.driving_rate, names, values)
        carried = np.ones(values.shape[0])
        loads: dict[int, FloatArray] = {}
        for op_id in plan:
            op = self._ops[op_id]
            loads[op_id] = rate * op.cost_per_tuple * carried
            carried = carried * self._column(
                op.selectivity_param, op.selectivity, names, values
            )
        return loads

    def gradients_batch(
        self, plan: LogicalPlan, values: FloatArray, names: Sequence[str]
    ) -> FloatArray:
        """Partial derivatives of plan cost at every point of a batch.

        Returns an ``(n_points, len(names))`` matrix whose column ``j``
        is ∂cost/∂``names[j]``; a parameter that does not influence the
        cost (neither the rate nor any operator's selectivity) gets a
        zero column — the batch analogue of :meth:`gradient` returning
        no entry for it.
        """
        values = np.asarray(values, dtype=float)
        names = list(names)
        n_points = values.shape[0]
        rate = self._column(self._rate_name, self._query.driving_rate, names, values)
        grads = np.zeros((n_points, len(names)))

        order = tuple(plan)
        sels = [
            self._column(
                self._ops[op_id].selectivity_param,
                self._ops[op_id].selectivity,
                names,
                values,
            )
            for op_id in order
        ]
        if self._rate_name in names:
            # ∂cost/∂λ = cost/λ, computed as the scalar path does (full
            # cost divided by the rate) so the two agree bitwise.
            carried = np.ones(n_points)
            total = np.zeros(n_points)
            for k, op_id in enumerate(order):
                total = total + self._ops[op_id].cost_per_tuple * carried
                carried = carried * sels[k]
            grads[:, names.index(self._rate_name)] = (rate * total) / rate
        for k, op_id in enumerate(order):
            name = self._ops[op_id].selectivity_param
            if name not in names:
                continue
            prefix_product = np.ones(n_points)
            for j in range(k):
                prefix_product = prefix_product * sels[j]
            suffix = np.zeros(n_points)
            carried = np.ones(n_points)
            for later in range(k + 1, len(order)):
                suffix = suffix + self._ops[order[later]].cost_per_tuple * carried
                carried = carried * sels[later]
            grads[:, names.index(name)] = rate * prefix_product * suffix
        return grads


def multilinear_features(values: Sequence[float]) -> FloatArray:
    """Feature vector of all subset products of ``values``.

    For values ``(x, y)`` the features are ``[1, x, y, x·y]`` — the 2-D
    cost family of §2.3.  For ``d`` values there are ``2^d`` features,
    ordered by subset size then lexicographically, matching the
    coefficient layout of :class:`PlanCostSurface`.
    """
    d = len(values)
    features = np.empty(2**d)
    idx = 0
    for size in range(d + 1):
        for subset in combinations(range(d), size):
            product = 1.0
            for j in subset:
                product *= values[j]
            features[idx] = product
            idx += 1
    return features


@dataclass(frozen=True)
class PlanCostSurface:
    """A fitted multilinear cost surface over named dimensions.

    ``dimensions`` are the parameter names (in feature order) and
    ``coefficients`` the fitted weights over all subset-product features.
    """

    dimensions: tuple[str, ...]
    coefficients: FloatArray

    def __post_init__(self) -> None:
        expected = 2 ** len(self.dimensions)
        if len(self.coefficients) != expected:
            raise ValueError(
                f"need {expected} coefficients for {len(self.dimensions)} dimensions, "
                f"got {len(self.coefficients)}"
            )

    def evaluate(self, point: Mapping[str, float]) -> float:
        """Surface value at ``point`` (must cover all dimensions)."""
        values = [float(point[name]) for name in self.dimensions]
        return float(self.coefficients @ multilinear_features(values))

    def gradient(self, point: Mapping[str, float]) -> dict[str, float]:
        """Analytic surface gradient at ``point``, per dimension."""
        values = [float(point[name]) for name in self.dimensions]
        grads: dict[str, float] = {}
        for i, name in enumerate(self.dimensions):
            # d/dx_i of each subset product is the product over the
            # subset minus {i} when i is in the subset, else zero.
            total = 0.0
            idx = 0
            for size in range(len(values) + 1):
                for subset in combinations(range(len(values)), size):
                    if i in subset:
                        product = 1.0
                        for j in subset:
                            if j != i:
                                product *= values[j]
                        total += self.coefficients[idx] * product
                    idx += 1
            grads[name] = total
        return grads


def fit_cost_surface(
    dimensions: Sequence[str],
    points: Sequence[Mapping[str, float]],
    costs: Sequence[float],
) -> PlanCostSurface:
    """Least-squares fit of a multilinear surface to observed costs.

    ``points`` are statistics points covering at least ``2^d`` distinct
    parameter combinations; ``costs`` the corresponding measured plan
    costs.  Raises ``ValueError`` when the system is underdetermined.
    """
    dimensions = tuple(dimensions)
    if len(points) != len(costs):
        raise ValueError(
            f"points ({len(points)}) and costs ({len(costs)}) lengths differ"
        )
    n_features = 2 ** len(dimensions)
    if len(points) < n_features:
        raise ValueError(
            f"need at least {n_features} samples to fit {len(dimensions)} "
            f"dimensions, got {len(points)}"
        )
    design = np.vstack(
        [
            multilinear_features([float(p[name]) for name in dimensions])
            for p in points
        ]
    )
    target = np.asarray(costs, dtype=float)
    coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
    return PlanCostSurface(dimensions, coefficients)


def surface_for_plan(
    model: PlanCostModel,
    plan: LogicalPlan,
    dimensions: Sequence[str],
    sample_points: Sequence[StatPoint],
) -> PlanCostSurface:
    """Fit a surface to a plan's *analytic* costs at the given samples.

    Convenience bridging the exact model and the fitted representation;
    for multilinear true costs the fit is exact up to rounding, which
    the test suite verifies.
    """
    costs = [model.plan_cost(plan, p) for p in sample_points]
    return fit_cost_surface(dimensions, sample_points, costs)
