"""Tests for plan diagrams, reduction, and rendering."""

from __future__ import annotations

import numpy as np
import pytest
from coverage_oracle import oracle_diagram, oracle_reduce

from repro.core import ParameterSpace
from repro.core.diagram import compute_plan_diagram
from repro.query import make_optimizer
from repro.workloads import build_q1


@pytest.fixture(scope="module")
def diagram():
    query = build_q1()
    estimate = query.default_estimates({"sel:1": 4, "sel:3": 4})
    space = ParameterSpace.from_estimates(estimate, points_per_level=2)
    return compute_plan_diagram(space, make_optimizer(query))


class TestComputeDiagram:
    def test_every_cell_assigned(self, diagram):
        n_points = diagram.space.n_points
        assert diagram.labels.shape == diagram.optimal_costs.shape == (n_points,)
        assert set(diagram.labels.tolist()) == set(range(len(diagram.plans)))

    def test_assignment_is_pointwise_optimal(self, diagram):
        oracle = make_optimizer(build_q1())
        for flat, index in list(enumerate(diagram.space.grid_indices()))[::7]:
            point = diagram.space.point_at(index)
            expected = oracle.optimize(point)
            assert diagram.plans[diagram.labels[flat]] == expected
            assert diagram.optimal_costs[flat] == pytest.approx(
                oracle.plan_cost(expected, point)
            )

    def test_areas_sum_to_one(self, diagram):
        total = sum(diagram.area_of(plan) for plan in diagram.plans)
        assert total == pytest.approx(1.0)

    def test_plans_sorted_by_area(self, diagram):
        areas = [diagram.area_of(plan) for plan in diagram.plans]
        assert areas == sorted(areas, reverse=True)

    def test_multiple_plans_found(self, diagram):
        assert diagram.cardinality >= 3


class TestReduction:
    def test_reduction_never_increases_cardinality(self, diagram):
        reduced = diagram.reduce(0.1)
        assert reduced.cardinality <= diagram.cardinality

    def test_zero_epsilon_is_identity(self, diagram):
        # At ε = 0 a plan can only be swallowed by one with identical
        # costs on all its cells — which deterministic tie-breaking
        # already collapsed — so the diagram is unchanged.
        reduced = diagram.reduce(0.0)
        assert reduced.plans == diagram.plans
        assert np.array_equal(reduced.labels, diagram.labels)

    def test_large_epsilon_collapses_to_one_plan(self, diagram):
        reduced = diagram.reduce(10.0)
        assert reduced.cardinality == 1

    def test_reduced_assignment_respects_epsilon(self, diagram):
        epsilon = 0.2
        reduced = diagram.reduce(epsilon)
        for flat, index in enumerate(diagram.space.grid_indices()):
            plan = reduced.plans[reduced.labels[flat]]
            cost = diagram.cost_model.plan_cost(plan, diagram.space.point_at(index))
            assert cost <= (1 + epsilon) * diagram.optimal_costs[flat] * (1 + 1e-9)

    def test_negative_epsilon_rejected(self, diagram):
        with pytest.raises(ValueError):
            diagram.reduce(-0.1)

    @pytest.mark.parametrize("level, points_per_level", [(4, 2), (4, 4), (5, 4)])
    def test_matches_dict_reduction(self, level, points_per_level):
        # The mask-based reduction against the dict rescan it replaced,
        # on q1 diagrams of 81, 289 and 441 cells.
        query = build_q1()
        estimate = query.default_estimates({"sel:1": level, "sel:3": level})
        space = ParameterSpace.from_estimates(
            estimate, points_per_level=points_per_level
        )
        diagram = compute_plan_diagram(space, make_optimizer(query))
        assignment, optimal = oracle_diagram(space, make_optimizer(query))
        for epsilon in (0.0, 0.1, 10.0):
            reduced = diagram.reduce(epsilon)
            expected = oracle_reduce(
                assignment, optimal, space, diagram.cost_model, epsilon
            )
            assert [reduced.plans[label] for label in reduced.labels] == [
                expected[index] for index in space.grid_indices()
            ]


class TestRender:
    def test_render_has_one_row_per_first_dim_step(self, diagram):
        text = diagram.render(legend=False)
        rows = text.splitlines()
        assert len(rows) == diagram.space.shape[0]
        assert all(len(row) == diagram.space.shape[1] for row in rows)

    def test_legend_lists_every_plan(self, diagram):
        text = diagram.render()
        for plan in diagram.plans:
            assert plan.label in text

    def test_non_2d_rejected(self):
        query = build_q1()
        estimate = query.default_estimates({"sel:1": 2})
        space = ParameterSpace.from_estimates(estimate)
        diagram_1d = compute_plan_diagram(space, make_optimizer(query))
        with pytest.raises(ValueError, match="2-D"):
            diagram_1d.render()
