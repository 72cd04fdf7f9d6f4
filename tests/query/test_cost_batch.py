"""Equivalence anchor for the vectorized cost kernels.

The whole vectorized evaluation core (cost tensors, routing tables,
weight batches) is only safe because the batch kernels agree with the
scalar ``plan_cost``/``operator_loads``/``gradient`` path.  These
hypothesis properties pin that equivalence across random queries,
plans, parameter subsets, and evaluation points — and pin it *tightly*:
costs and loads must match bitwise (the kernels replicate the scalar
float-operation order), gradients within 1e-9 relative.
"""

from __future__ import annotations

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
        batch = model.plan_costs(plan, matrix, names)
        scalar = [model.plan_cost(plan, point) for point in _points(names, matrix)]
        assert batch.shape == (matrix.shape[0],)
        assert np.array_equal(batch, np.array(scalar))

    @settings(max_examples=60, deadline=None)
    @given(case=batch_cases())
    def test_operator_loads_batch_matches_scalar_bitwise(self, case):
        query, plan, names, matrix = case
        model = PlanCostModel(query)
        batch = model.operator_loads_batch(plan, matrix, names)
        assert set(batch) == set(plan)
        for k, point in enumerate(_points(names, matrix)):
            scalar = model.operator_loads(plan, point)
            for op_id, load in scalar.items():
                assert batch[op_id][k] == load

    @settings(max_examples=60, deadline=None)
    @given(case=batch_cases())
    def test_gradients_batch_matches_scalar(self, case):
        query, plan, names, matrix = case
        model = PlanCostModel(query)
        batch = model.gradients_batch(plan, matrix, names)
        assert batch.shape == (matrix.shape[0], len(names))
        for k, point in enumerate(_points(names, matrix)):
            scalar = model.gradient(plan, point)
            for j, name in enumerate(names):
                assert batch[k, j] == pytest.approx(
                    scalar[name], rel=1e-9, abs=1e-12
                ), name
