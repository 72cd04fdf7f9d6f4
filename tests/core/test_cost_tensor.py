"""Tests for the shared dense cost/load tensor cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CostTensorCache, ParameterSpace, lexicographic_argmin
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
def cache(three_op_query, space, plans) -> CostTensorCache:
    return CostTensorCache(space, PlanCostModel(three_op_query), plans)


class TestCostTensor:
    def test_matches_scalar_bitwise_in_grid_order(self, cache, three_op_query):
        model = PlanCostModel(three_op_query)
        tensor = cache.cost_tensor
        assert tensor.shape == (cache.n_plans, cache.n_points)
        for i, plan in enumerate(cache.plans):
            for flat, index in enumerate(cache.space.grid_indices()):
                point = cache.space.point_at(index)
                assert tensor[i, flat] == model.plan_cost(plan, point)

    def test_tensors_are_memoized_and_read_only(self, cache):
        assert cache.cost_tensor is cache.cost_tensor
        with pytest.raises(ValueError):
            cache.cost_tensor[0, 0] = 1.0

    def test_min_costs_is_the_dedup_helper(self, cache, three_op_query):
        model = PlanCostModel(three_op_query)
        best = cache.min_costs()
        for flat, index in enumerate(cache.space.grid_indices()):
            point = cache.space.point_at(index)
            assert best[flat] == min(
                model.plan_cost(plan, point) for plan in cache.plans
            )

    def test_min_costs_over_subset(self, cache):
        subset = cache.min_costs([0, 2])
        expected = np.minimum(cache.cost_tensor[0], cache.cost_tensor[2])
        assert np.array_equal(subset, expected)

    def test_best_plan_matches_scalar_tie_break(self, cache, three_op_query):
        model = PlanCostModel(three_op_query)
        best = lexicographic_argmin([cache.cost_tensor], cache.plan_ranks)
        for flat, index in enumerate(cache.space.grid_indices()):
            point = cache.space.point_at(index)
            winner = min(
                cache.plans,
                key=lambda p: (model.plan_cost(p, point), p.order),
            )
            assert cache.plans[best[flat]] == winner

    def test_plan_index_lookup(self, cache, plans):
        assert cache.plan_index(plans[1]) == 1
        with pytest.raises(ValueError):
            cache.plan_index(LogicalPlan((0, 2, 1)))

    def test_empty_plan_set_rejected(self, three_op_query, space):
        with pytest.raises(ValueError):
            CostTensorCache(space, PlanCostModel(three_op_query), [])


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
