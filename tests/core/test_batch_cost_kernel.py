"""Tests for the batch cost kernel over flat grid positions and its
``(cost, plan.order)`` tie-break."""

from __future__ import annotations

import numpy as np
import pytest
from grid_points import grid_columns
from tie_break import lexicographic_argmin, order_ranks

from repro.core import ParameterSpace
from repro.core.parameter_space import Dimension
from repro.query import LogicalPlan, PlanCostModel


@pytest.fixture
def space() -> ParameterSpace:
    return ParameterSpace(
        [
            Dimension("sel:0", 0.3, 0.9, 4),
            Dimension("sel:2", 0.2, 0.6, 3),
            Dimension("rate", 80.0, 120.0, 3),
        ]
    )


@pytest.fixture
def plans(three_op_query) -> list[LogicalPlan]:
    return [
        LogicalPlan((0, 1, 2)),
        LogicalPlan((2, 1, 0)),
        LogicalPlan((1, 2, 0)),
    ]


@pytest.fixture
def costs(three_op_query, space, plans) -> np.ndarray:
    """Every plan's cost at every grid point, one row per plan."""
    model = PlanCostModel(three_op_query)
    rate, sels = model.resolve_axes(grid_columns(space), space.names)
    return np.vstack([model.cost_at(model.steps(plan), rate, sels) for plan in plans])


class TestBatchCostKernel:
    def test_matches_scalar_bitwise_in_grid_order(
        self, costs, space, plans, three_op_query
    ):
        model = PlanCostModel(three_op_query)
        assert costs.shape == (len(plans), space.n_points)
        for i, plan in enumerate(plans):
            for flat, index in enumerate(space.grid_indices()):
                point = space.point_at(index)
                assert costs[i, flat] == model.plan_cost(plan, point)

    def test_best_plan_matches_scalar_tie_break(
        self, costs, space, plans, three_op_query
    ):
        model = PlanCostModel(three_op_query)
        best = lexicographic_argmin([costs], order_ranks(plans))
        for flat, index in enumerate(space.grid_indices()):
            point = space.point_at(index)
            winner = min(
                plans,
                key=lambda p: (model.plan_cost(p, point), p.order),
            )
            assert plans[best[flat]] == winner
