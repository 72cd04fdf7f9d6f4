"""Tests for the batch cost kernel over flat grid positions and the
shared ``(cost, plan.order)`` tie-break kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ParameterSpace, lexicographic_argmin
from repro.core.logical import order_ranks
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
    values = space.points_matrix(np.arange(space.n_points))
    model = PlanCostModel(three_op_query)
    return np.vstack([model.plan_costs(plan, values, space.names) for plan in plans])


class TestCostTensor:
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


class TestLexicographicArgmin:
    def test_single_key_with_rank_tie_break(self):
        keys = [np.array([[1.0, 5.0, 2.0], [1.0, 4.0, 2.0]])]
        ranks = np.array([1, 0])
        # col 0: exact tie -> rank 0 wins (row 1); col 1: row 1 smaller;
        # col 2: exact tie -> rank 0 wins (row 1).
        assert lexicographic_argmin(keys, ranks).tolist() == [1, 1, 1]

    def test_secondary_key_breaks_primary_ties(self):
        primary = np.array([[1.0, 1.0], [1.0, 2.0]])
        secondary = np.array([[9.0, 0.0], [3.0, 0.0]])
        ranks = np.array([0, 1])
        assert lexicographic_argmin(
            [primary, secondary], ranks
        ).tolist() == [1, 0]

    def test_matches_python_min_on_random_keys(self):
        rng = np.random.default_rng(3)
        keys = [
            rng.integers(0, 4, size=(5, 40)).astype(float) for _ in range(2)
        ]
        ranks = rng.permutation(5)
        result = lexicographic_argmin(keys, ranks)
        for col in range(40):
            expected = min(
                range(5),
                key=lambda p: (keys[0][p, col], keys[1][p, col], ranks[p]),
            )
            assert result[col] == expected

    def test_requires_a_key(self):
        with pytest.raises(ValueError):
            lexicographic_argmin([], np.array([0]))
