"""Equivalence anchor for the cost kernels.

The whole vectorized evaluation core (cost tensors, routing, weight
batches) and the scalar callers (optimizers, ROD/DYN placement) price
plans through one kernel per formula in :class:`PlanCostModel`.  A
check of that kernel against itself proves nothing, so these
hypothesis properties compare both the scalar and the batch wrappers
against an independent oracle (``cost_oracle``) across random queries,
plans, parameter subsets and evaluation points — and pin it *tightly*:
costs and loads must match bitwise, gradients within 1e-9 relative.
"""

from __future__ import annotations

import cost_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import (
    LogicalPlan,
    Operator,
    PlanCostModel,
    Query,
    StatPoint,
    StreamSchema,
)

#: Plausible statistic ranges per parameter kind.
SEL_RANGE = (0.05, 2.0)
RATE_RANGE = (1.0, 1000.0)


@st.composite
def batch_cases(draw):
    """A random (query, plan, names, points-matrix) evaluation case."""
    n_ops = draw(st.integers(min_value=2, max_value=6))
    operators = tuple(
        Operator(
            op_id=i,
            name=f"op{i}",
            cost_per_tuple=draw(
                st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
            ),
            selectivity=draw(
                st.floats(*SEL_RANGE, allow_nan=False, allow_infinity=False)
            ),
        )
        for i in range(n_ops)
    )
    streams = (
        StreamSchema(
            "S",
            (),
            base_rate=draw(
                st.floats(*RATE_RANGE, allow_nan=False, allow_infinity=False)
            ),
        ),
    )
    query = Query("rand", operators, streams)
    plan = LogicalPlan(tuple(draw(st.permutations(range(n_ops)))))
    candidates = [op.selectivity_param for op in operators] + ["rate"]
    names = draw(
        st.lists(
            st.sampled_from(candidates),
            min_size=1,
            max_size=len(candidates),
            unique=True,
        )
    )
    n_points = draw(st.integers(min_value=1, max_value=8))
    rows = []
    for _ in range(n_points):
        row = []
        for name in names:
            lo, hi = RATE_RANGE if name == "rate" else SEL_RANGE
            row.append(
                draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))
            )
        rows.append(row)
    return query, plan, names, np.array(rows)


def _points(names, matrix):
    """Scalar StatPoints corresponding to the matrix rows."""
    return [
        StatPoint(dict(zip(names, row))) for row in np.asarray(matrix)
    ]


class TestBatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(case=batch_cases())
    def test_plan_costs_matches_scalar_bitwise(self, case):
        query, plan, names, matrix = case
        model = PlanCostModel(query)
        rate, sels = model.resolve_axes(list(matrix.T), names)
        cost = model.cost_at(model.steps(plan), rate, sels)
        batch = np.broadcast_to(cost, len(matrix))
        points = _points(names, matrix)
        scalar = [model.plan_cost(plan, point) for point in points]
        oracle = [cost_oracle.plan_cost(query, plan, point) for point in points]
        assert scalar == oracle
        assert np.array_equal(batch, np.array(oracle))

    @settings(max_examples=60, deadline=None)
    @given(case=batch_cases())
    def test_loads_at_columns_matches_scalar_bitwise(self, case):
        query, plan, names, matrix = case
        model = PlanCostModel(query)
        rate, sels = model.resolve_axes(list(matrix.T), names)
        loads = model.loads_at(model.steps(plan), rate, sels)
        n = len(matrix)
        batch = {op_id: np.broadcast_to(load, n) for op_id, load in zip(plan, loads)}
        assert set(batch) == set(plan)
        for k, point in enumerate(_points(names, matrix)):
            oracle = cost_oracle.operator_loads(query, plan, point)
            assert model.operator_loads(plan, point) == oracle
            for op_id, load in oracle.items():
                assert batch[op_id][k] == load

    @settings(max_examples=60, deadline=None)
    @given(case=batch_cases())
    def test_kernels_broadcast_over_axes_bitwise(self, case):
        # Each parameter on its own axis: the kernels price the whole
        # grid of the batch's values (at most 3 values on 4 axes), and
        # every grid point matches the oracle at that point.
        query, plan, names, matrix = case
        names, matrix = names[:4], matrix[:3, :4]
        model = PlanCostModel(query)
        d = len(names)
        axes = [
            matrix[:, j].reshape((1,) * j + (-1,) + (1,) * (d - j - 1))
            for j in range(d)
        ]
        rate, sels = model.resolve_axes(axes, names)
        steps = model.steps(plan)
        shape = (matrix.shape[0],) * d
        costs = np.broadcast_to(model.cost_at(steps, rate, sels), shape)
        loads = [
            np.broadcast_to(load, shape) for load in model.loads_at(steps, rate, sels)
        ]
        for index in np.ndindex(*shape):
            point = StatPoint(
                {name: matrix[i, j] for j, (name, i) in enumerate(zip(names, index))}
            )
            assert costs[index] == cost_oracle.plan_cost(query, plan, point)
            oracle = cost_oracle.operator_loads(query, plan, point)
            assert [load[index] for load in loads] == [oracle[op] for op in plan]

    @settings(max_examples=60, deadline=None)
    @given(case=batch_cases())
    def test_gradients_batch_matches_scalar(self, case):
        query, plan, names, matrix = case
        model = PlanCostModel(query)
        batch = model.gradients_batch(plan, list(matrix.T), names)
        assert batch.shape == (matrix.shape[0], len(names))
        for k, point in enumerate(_points(names, matrix)):
            oracle = cost_oracle.gradient(query, plan, point)
            for j, name in enumerate(names):
                assert batch[k, j] == pytest.approx(
                    oracle[name], rel=1e-9, abs=1e-12
                ), name
