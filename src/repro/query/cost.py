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
  §4.2 weight function), from one kernel per formula that runs on
  floats (one point) and on NumPy columns (a batch) alike.
* :class:`PlanCostSurface` — a fitted multilinear surface obtained from
  sampled (point, cost) observations via least squares, the paper's
  "standard surface-fitting techniques", for when costs come from
  measurements rather than a formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence, Union, overload

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


#: A plan as one ``(cost per tuple, slot)`` step per operator, in plan
#: order; the slot is the operator's index in ``query.operators``,
#: where :meth:`PlanCostModel.resolve` puts its selectivity.
Steps = tuple[tuple[float, int], ...]

#: A statistic's value: one float, or one column of a batch.
Value = Union[float, FloatArray]


class PlanCostModel:
    """Exact analytic cost model for one query's logical plans.

    The model is the only code that reads statistics and prices plans.
    :meth:`resolve` (one point) and :meth:`resolve_columns` (a batch)
    turn statistics into a rate and one selectivity per operator slot;
    a parameter the point lacks takes its estimate, so callers may
    supply points over any subset of parameters (e.g. only the two
    uncertain dimensions of a 2-D parameter space).  :meth:`cost_at`
    and :meth:`loads_at` then price a plan's :meth:`steps` with one
    loop each, unchanged on floats and on NumPy columns; every scalar,
    batch and runtime caller goes through them.
    """

    def __init__(self, query: Query) -> None:
        self._query = query
        self._rate_name = rate_param()
        operators = query.operators
        self._params = [(op.selectivity_param, op.selectivity) for op in operators]
        self._step_of = {
            op.op_id: (op.cost_per_tuple, slot) for slot, op in enumerate(operators)
        }
        self._steps: dict[LogicalPlan, Steps] = {}

    @property
    def query(self) -> Query:
        """The query this model prices."""
        return self._query

    def resolve(self, point: Mapping[str, float]) -> tuple[float, list[float]]:
        """The rate and the per-slot selectivities at ``point``."""
        get = point.get
        rate = float(get(self._rate_name, self._query.driving_rate))
        return rate, [float(get(name, default)) for name, default in self._params]

    def resolve_columns(
        self, values: FloatArray, names: Sequence[str]
    ) -> tuple[FloatArray, list[Value]]:
        """:meth:`resolve` for every row of a batch.

        ``values`` is a ``(n_points, len(names))`` matrix whose columns
        are the parameters listed in ``names``.  A parameter among
        ``names`` resolves to its column; a selectivity that is not
        resolves to its estimate, and a missing rate to a column of the
        driving rate, so priced batches are always ``(n_points,)``.
        """
        values = np.asarray(values, dtype=float)
        columns = {name: values[:, j] for j, name in enumerate(names)}
        rate = columns.get(self._rate_name)
        if rate is None:
            rate = np.full(values.shape[0], self._query.driving_rate)
        sels: list[Value] = [
            columns.get(name, default) for name, default in self._params
        ]
        return rate, sels

    def steps(self, plan: LogicalPlan) -> Steps:
        """``plan`` as ``(cost per tuple, slot)`` steps, memoized per plan."""
        steps = self._steps.get(plan)
        if steps is None:
            steps = self._steps[plan] = tuple(self._step_of[op_id] for op_id in plan)
        return steps

    @overload
    @staticmethod
    def cost_at(steps: Steps, rate: float, sels: Sequence[float]) -> float: ...
    @overload
    @staticmethod
    def cost_at(steps: Steps, rate: Value, sels: Sequence[Value]) -> Value: ...
    @staticmethod
    def cost_at(steps: Steps, rate: Value, sels: Sequence[Value]) -> Value:
        """Total per-second cost of a plan's ``steps`` at resolved statistics."""
        carried: Value = 1.0
        total: Value = 0.0
        for cost, slot in steps:
            total += cost * carried
            carried *= sels[slot]
        return rate * total

    @overload
    @staticmethod
    def loads_at(steps: Steps, rate: float, sels: Sequence[float]) -> list[float]: ...
    @overload
    @staticmethod
    def loads_at(steps: Steps, rate: Value, sels: Sequence[Value]) -> list[Value]: ...
    @staticmethod
    def loads_at(steps: Steps, rate: Value, sels: Sequence[Value]) -> list[Value]:
        """Each step's per-second load at resolved statistics, in plan order."""
        carried: Value = 1.0
        loads: list[Value] = []
        for cost, slot in steps:
            loads.append(rate * cost * carried)
            carried *= sels[slot]
        return loads

    def plan_cost(self, plan: LogicalPlan, point: Mapping[str, float]) -> float:
        """Total per-second cost of ``plan`` at ``point``."""
        return self.cost_at(self.steps(plan), *self.resolve(point))

    def operator_loads(
        self, plan: LogicalPlan, point: Mapping[str, float]
    ) -> dict[int, float]:
        """Per-operator loads for all operators of ``plan`` at ``point``."""
        loads = self.loads_at(self.steps(plan), *self.resolve(point))
        return dict(zip(plan, loads))

    def plan_costs(
        self, plan: LogicalPlan, values: FloatArray, names: Sequence[str]
    ) -> FloatArray:
        """Total per-second cost of ``plan`` at every point of a batch.

        ``values`` is a ``(n_points, len(names))`` matrix (e.g. a block
        of :meth:`~repro.core.parameter_space.ParameterSpace.points_matrix`),
        resolved as in :meth:`resolve_columns`.  Returns an
        ``(n_points,)`` cost vector, bitwise equal to :meth:`plan_cost`
        row by row.
        """
        rate, sels = self.resolve_columns(values, names)
        costs = self.cost_at(self.steps(plan), rate, sels)
        return np.asarray(costs, dtype=np.float64)

    def gradients_batch(
        self, plan: LogicalPlan, values: FloatArray, names: Sequence[str]
    ) -> FloatArray:
        """Partial derivatives of plan cost at every point of a batch.

        Returns an ``(n_points, len(names))`` matrix whose column ``j``
        is ∂cost/∂``names[j]``; a parameter that does not influence the
        cost (neither the rate nor any operator's selectivity) gets a
        zero column.  Because the cost is multilinear, ∂cost/∂λ is
        cost/λ and ∂cost/∂σ_k is the rate times the selectivities
        upstream of operator k times the downstream suffix priced at
        unit rate.  Used by the §4.2 slope-based weight function.
        """
        rate, sels = self.resolve_columns(values, names)
        steps = self.steps(plan)
        position = {name: j for j, name in enumerate(names)}
        grads = np.zeros((rate.shape[0], len(names)))
        if self._rate_name in position:
            grads[:, position[self._rate_name]] = self.cost_at(steps, rate, sels) / rate
        upstream: Value = 1.0
        for k, (_, slot) in enumerate(steps):
            j = position.get(self._params[slot][0])
            if j is not None:
                suffix = self.cost_at(steps[k + 1 :], 1.0, sels)
                grads[:, j] = rate * upstream * suffix
            upstream = upstream * sels[slot]
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
