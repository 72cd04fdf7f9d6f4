"""Tests for ε-robustness checks and coverage measurement."""

from __future__ import annotations

import numpy as np
import pytest
from coverage_oracle import (
    oracle_coverage,
    oracle_coverage_against_sequence,
    oracle_covered,
    oracle_diagram,
)

from repro.core import (
    EarlyTerminatedRobustPartitioning,
    ExhaustiveSearch,
    ParameterSpace,
    RobustnessChecker,
    compute_plan_diagram,
    measure_coverage,
    robust_mask,
)
from repro.core.parameter_space import Region
from repro.core.robustness import coverage_against_sequence
from repro.query import PlanCostModel, make_optimizer
from repro.workloads import build_q1


@pytest.fixture
def setup(three_op_query):
    est = three_op_query.default_estimates({"sel:0": 3, "sel:2": 3})
    space = ParameterSpace.from_estimates(est, points_per_level=3)
    optimizer = make_optimizer(three_op_query)
    return three_op_query, space, optimizer


class TestRobustnessChecker:
    def test_single_cell_trivially_robust(self, setup):
        query, space, optimizer = setup
        checker = RobustnessChecker(optimizer, epsilon=0.0)
        cell = Region(space, (0, 0), (0, 0))
        check = checker.check_region(cell)
        assert check.robust
        assert check.cost_ratio == 1.0

    def test_same_corner_plans_robust(self, setup):
        query, space, optimizer = setup
        checker = RobustnessChecker(optimizer, epsilon=0.0)
        # A tiny region around one point almost surely has one optimal plan.
        region = Region(space, (0, 0), (1, 0))
        check = checker.check_region(region)
        if check.plan == check.opt_hi:
            assert check.robust

    def test_check_honours_epsilon(self, setup):
        query, space, optimizer = setup
        region = space.full_region()
        strict = RobustnessChecker(make_optimizer(query), epsilon=0.0)
        loose = RobustnessChecker(make_optimizer(query), epsilon=10.0)
        strict_check = strict.check_region(region)
        loose_check = loose.check_region(region)
        assert loose_check.robust  # ε = 1000% forgives anything
        if strict_check.plan != strict_check.opt_hi:
            assert strict_check.cost_ratio > 1.0

    def test_corner_cache_saves_calls(self, setup):
        query, space, optimizer = setup
        checker = RobustnessChecker(optimizer, epsilon=0.2)
        region = space.full_region()
        checker.check_region(region)
        calls_after_first = optimizer.call_count
        # Sub-regions share corners with the parent.
        pieces = region.split_at((4, 4))
        for piece in pieces:
            checker.check_region(piece)
        # 4 sub-regions have 8 corners total, of which 2 coincide with the
        # parent's; at most 6 new optimizer calls.
        assert optimizer.call_count - calls_after_first <= 6

    def test_negative_epsilon_rejected(self, setup):
        _, _, optimizer = setup
        with pytest.raises(ValueError, match="epsilon"):
            RobustnessChecker(optimizer, epsilon=-0.1)

    def test_robust_plan_satisfies_definition_1(self, setup):
        query, space, optimizer = setup
        epsilon = 0.25
        checker = RobustnessChecker(optimizer, epsilon=epsilon)
        region = space.full_region()
        check = checker.check_region(region)
        pnt_hi = region.pnt_hi
        cost_plan = optimizer.plan_cost(check.plan, pnt_hi)
        cost_opt = optimizer.plan_cost(check.opt_hi, pnt_hi)
        assert check.robust == (cost_plan <= (1 + epsilon) * cost_opt)


class TestCoverage:
    def test_all_optimal_plans_give_full_coverage(self, setup):
        query, space, optimizer = setup
        diagram = compute_plan_diagram(space, make_optimizer(query))
        assert measure_coverage(diagram.plans, diagram, epsilon=0.0) == 1.0

    def test_empty_plan_set_covers_nothing(self, setup):
        query, space, optimizer = setup
        diagram = compute_plan_diagram(space, make_optimizer(query))
        assert measure_coverage([], diagram, 0.2) == 0.0

    def test_single_plan_coverage_grows_with_epsilon(self, setup):
        query, space, optimizer = setup
        oracle = make_optimizer(query)
        diagram = compute_plan_diagram(space, oracle)
        plan = oracle.optimize(space.full_region().pnt_lo)
        tight = measure_coverage([plan], diagram, 0.0)
        loose = measure_coverage([plan], diagram, 0.5)
        assert loose >= tight
        assert loose > 0.0

    def test_covered_indices_subset_of_grid(self, setup):
        query, space, optimizer = setup
        oracle = make_optimizer(query)
        diagram = compute_plan_diagram(space, oracle)
        plan = oracle.optimize(space.full_region().pnt_hi)
        region = np.flatnonzero(robust_mask(plan, diagram, 0.2))
        assert np.array_equal(region, np.unique(region))
        assert np.all((0 <= region) & (region < space.n_points))

    def test_robust_region_contains_optimality_region(self, setup):
        query, space, optimizer = setup
        oracle = make_optimizer(query)
        diagram = compute_plan_diagram(space, oracle)
        plan = oracle.optimize(space.full_region().pnt_lo)
        region = np.flatnonzero(robust_mask(plan, diagram, 0.2))
        # Everywhere the plan is optimal it is also ε-robust.
        owned = np.flatnonzero(diagram.labels == diagram.plans.index(plan))
        assert np.isin(owned, region).all()


def _flat(space, indices):
    """Sorted row-major flat positions of grid-index tuples."""
    return sorted(int(np.ravel_multi_index(index, space.shape)) for index in indices)


@pytest.fixture(scope="module", params=[(4, 2), (4, 4), (5, 4)], ids=str)
def q1_case(request):
    """A small q1 space (81, 289 or 441 cells), its diagram, the dict
    oracle's optimum, and the ES and ERP discovery sequences."""
    level, points_per_level = request.param
    query = build_q1()
    estimate = query.default_estimates({"sel:1": level, "sel:3": level})
    space = ParameterSpace.from_estimates(estimate, points_per_level=points_per_level)
    diagram = compute_plan_diagram(space, make_optimizer(query))
    _, optimal = oracle_diagram(space, make_optimizer(query))
    sequences = {
        name: [
            (d.at_call, d.plan)
            for d in searcher(query, space, epsilon=0.1).run().solution.discoveries
        ]
        for name, searcher in (
            ("ES", ExhaustiveSearch),
            ("ERP", EarlyTerminatedRobustPartitioning),
        )
    }
    return space, diagram, optimal, sequences, PlanCostModel(query)


class TestHarnessMatchesDictOracle:
    """The mask-based harness against the dict/set form it replaced."""

    EPSILONS = (0.0, 0.05, 0.1, 0.2)

    def test_measure_coverage(self, q1_case):
        space, diagram, optimal, sequences, model = q1_case
        erp = [plan for _, plan in sequences["ERP"]]
        plan_sets = [erp, erp[:2], diagram.plans[1:], [diagram.plans[-1]], []]
        for plans in plan_sets:
            for epsilon in self.EPSILONS:
                assert measure_coverage(plans, diagram, epsilon) == oracle_coverage(
                    plans, space, model, optimal, epsilon
                )

    def test_robust_region_of_plan(self, q1_case):
        space, diagram, optimal, _, model = q1_case
        for plan in diagram.plans:
            for epsilon in self.EPSILONS:
                region = np.flatnonzero(robust_mask(plan, diagram, epsilon))
                expected = oracle_covered([plan], space, model, optimal, epsilon)
                assert region.tolist() == _flat(space, expected)

    def test_coverage_against_sequence(self, q1_case):
        space, diagram, optimal, sequences, model = q1_case
        budgets = (0, 1, 5, 10, 50, 100, 300, 1000)
        for sequence in sequences.values():
            for epsilon in self.EPSILONS:
                assert coverage_against_sequence(
                    sequence, budgets, diagram, epsilon
                ) == oracle_coverage_against_sequence(
                    sequence, budgets, space, model, optimal, epsilon
                )

    def test_diagram_matches_per_index_optimum(self, q1_case):
        space, diagram, optimal, _, _ = q1_case
        assignment, _ = oracle_diagram(space, make_optimizer(build_q1()))
        for flat, index in enumerate(space.grid_indices()):
            assert diagram.plans[diagram.labels[flat]] == assignment[index]
            assert diagram.optimal_costs[flat] == optimal[index]
