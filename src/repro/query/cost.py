"""Plan cost model (§2.3).

The cost of a pipeline plan at a statistics point is the classic
cascaded-selectivity form

    cost(lp, pnt) = λ · Σ_k  c_{π(k)} · Π_{j<k} σ_{π(j)}

— per-second CPU work summed over the operators in plan order, where an
operator's input cardinality is the driving rate λ thinned (or fanned
out) by all earlier operators' selectivities.  This is *multilinear* in
the uncertain parameters, exactly the polynomial family the paper fits
("cost(p, pnt) = c1·σi + c2·σj + c3·σi·σj + c4" for 2-D).

Because the formula is known, no surface is fitted: :class:`PlanCostModel`
gives exact analytic costs, per-operator loads (the input to
physical-plan feasibility), and gradients (the input to the §4.2 weight
function), from one kernel per formula that runs on floats (one point)
and on NumPy columns (a batch) alike.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union, overload

import numpy as np

from repro.query.model import Query
from repro.query.plans import LogicalPlan
from repro.query.statistics import rate_param
from repro.util.types import FloatArray

__all__ = ["PlanCostModel"]


#: A plan as one ``(cost per tuple, slot)`` step per operator, in plan
#: order; the slot is the operator's index in ``query.operators``,
#: where :meth:`PlanCostModel.resolve` puts its selectivity.
Steps = tuple[tuple[float, int], ...]

#: A statistic's value: one float, a batch column, or a grid axis that
#: broadcasts along its own dimension.
Value = Union[float, FloatArray]


class PlanCostModel:
    """Exact analytic cost model for one query's logical plans.

    The model is the only code that reads statistics and prices plans.
    :meth:`resolve` (one point) and :meth:`resolve_axes` (batch columns
    or a grid's broadcast axes) turn statistics into a rate and one
    selectivity per operator slot;
    a parameter the point lacks takes its estimate, so callers may
    supply points over any subset of parameters (e.g. only the two
    uncertain dimensions of a 2-D parameter space).  :meth:`cost_at`
    and :meth:`loads_at` then price a plan's :meth:`steps` with one
    loop each, unchanged on floats, on NumPy columns and on axes that
    broadcast into a grid; every scalar, batch, grid and runtime caller
    goes through them.
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

    def resolve_axes(
        self, columns: Sequence[Value], names: Sequence[str]
    ) -> tuple[Value, list[Value]]:
        """:meth:`resolve` for columns that broadcast against each other.

        ``columns[j]`` holds the values of parameter ``names[j]``: a
        batch column, or one axis of a grid reshaped to broadcast along
        its own dimension only
        (:meth:`~repro.core.parameter_space.ParameterSpace.slabs`).
        A parameter among ``names`` resolves to its column; the rate and
        a selectivity that are not resolve to their float estimates,
        which broadcast like any column.
        """
        given = dict(zip(names, columns))
        rate = given.get(self._rate_name, self._query.driving_rate)
        sels = [given.get(name, default) for name, default in self._params]
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
        """Total per-second cost of a plan's ``steps`` at resolved statistics.

        Partial products are rebound, never updated in place, so inputs
        of different broadcast shapes combine into the broadcast shape;
        the last step's selectivity feeds no later step and is never
        multiplied in, so the total does not take on its shape.
        """
        carried: Value = 1.0
        total: Value = 0.0
        previous: int | None = None
        for cost, slot in steps:
            if previous is not None:
                carried = carried * sels[previous]
            total = total + cost * carried
            previous = slot
        return rate * total

    @overload
    @staticmethod
    def loads_at(steps: Steps, rate: float, sels: Sequence[float]) -> list[float]: ...
    @overload
    @staticmethod
    def loads_at(steps: Steps, rate: Value, sels: Sequence[Value]) -> list[Value]: ...
    @staticmethod
    def loads_at(steps: Steps, rate: Value, sels: Sequence[Value]) -> list[Value]:
        """Each step's per-second load at resolved statistics, in plan order.

        Broadcasts like :meth:`cost_at`: each load has the shape of the
        inputs it reads.
        """
        carried: Value = 1.0
        loads: list[Value] = []
        previous: int | None = None
        for cost, slot in steps:
            if previous is not None:
                carried = carried * sels[previous]
            loads.append(rate * cost * carried)
            previous = slot
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

    def gradients_batch(
        self, plan: LogicalPlan, columns: Sequence[Value], names: Sequence[str]
    ) -> FloatArray:
        """Partial derivatives of plan cost at every point of a batch.

        ``columns[j]`` holds the values of parameter ``names[j]``: a
        batch column, or a float that holds at every point.  Returns an
        ``(n_points, len(names))`` matrix whose column ``j`` is
        ∂cost/∂``names[j]``; a parameter that does not influence the
        cost (neither the rate nor any operator's selectivity) gets a
        zero column.  Because the cost is multilinear, ∂cost/∂λ is
        cost/λ and ∂cost/∂σ_k is the rate times the selectivities
        upstream of operator k times the downstream suffix priced at
        unit rate.  Used by the §4.2 slope-based weight function.
        """
        rate, sels = self.resolve_axes(columns, names)
        steps = self.steps(plan)
        position = {name: j for j, name in enumerate(names)}
        shape = np.broadcast_shapes(*(np.shape(column) for column in columns))
        grads = np.zeros((*shape, len(names)))
        if self._rate_name in position:
            column = position[self._rate_name]
            grads[..., column] = self.cost_at(steps, rate, sels) / rate
        upstream: Value = 1.0
        for k, (_, slot) in enumerate(steps):
            j = position.get(self._params[slot][0])
            if j is not None:
                suffix = self.cost_at(steps[k + 1 :], 1.0, sels)
                grads[..., j] = rate * upstream * suffix
            upstream = upstream * sels[slot]
        return grads
