"""Reference oracle for the plan cost formulas of §2.3.

Plain scalar loops over a query's operators, written independently of
:class:`~repro.query.cost.PlanCostModel`: a plan's cost, its
per-operator loads and its analytic gradient at one statistics point,
each statistic read from the point or taken at its estimate.  The cost
and load loops accumulate in the cascaded-selectivity order of the
formula, so tests compare the model's scalar and batch wrappers against
them bitwise; gradients are compared within 1e-9 relative.
"""

from __future__ import annotations

from typing import Mapping

from repro.query import LogicalPlan, Operator, Query, rate_param


def _rate(query: Query, point: Mapping[str, float]) -> float:
    return float(point.get(rate_param(), query.driving_rate))


def _selectivity(op: Operator, point: Mapping[str, float]) -> float:
    return float(point.get(op.selectivity_param, op.selectivity))


def plan_cost(query: Query, plan: LogicalPlan, point: Mapping[str, float]) -> float:
    """Total per-second cost of ``plan`` at ``point``."""
    ops = {op.op_id: op for op in query.operators}
    carried = 1.0
    total = 0.0
    for op_id in plan:
        op = ops[op_id]
        total += op.cost_per_tuple * carried
        carried *= _selectivity(op, point)
    return _rate(query, point) * total


def operator_loads(
    query: Query, plan: LogicalPlan, point: Mapping[str, float]
) -> dict[int, float]:
    """Per-operator loads of ``plan`` at ``point``."""
    ops = {op.op_id: op for op in query.operators}
    rate = _rate(query, point)
    carried = 1.0
    loads: dict[int, float] = {}
    for op_id in plan:
        op = ops[op_id]
        loads[op_id] = rate * op.cost_per_tuple * carried
        carried *= _selectivity(op, point)
    return loads


def gradient(
    query: Query, plan: LogicalPlan, point: Mapping[str, float]
) -> dict[str, float]:
    """Partial derivatives of plan cost w.r.t. each parameter in ``point``.

    Because the cost is multilinear, ∂cost/∂σ_k is the rate times the
    product of the selectivities before operator k times the cost of
    the suffix after it, and ∂cost/∂λ is cost/λ.  Parameters absent
    from ``point`` get no entry.
    """
    ops = {op.op_id: op for op in query.operators}
    rate = _rate(query, point)
    grads: dict[str, float] = {}
    if rate_param() in point:
        grads[rate_param()] = plan_cost(query, plan, point) / rate
    order = tuple(plan)
    for k, op_id in enumerate(order):
        name = ops[op_id].selectivity_param
        if name not in point:
            continue
        prefix_product = 1.0
        for earlier in order[:k]:
            prefix_product *= _selectivity(ops[earlier], point)
        suffix = 0.0
        carried = 1.0
        for later in order[k + 1 :]:
            suffix += ops[later].cost_per_tuple * carried
            carried *= _selectivity(ops[later], point)
        grads[name] = rate * prefix_product * suffix
    return grads
