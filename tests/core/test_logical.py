"""Tests for robust logical solutions (plan routing, regions, weights)."""

from __future__ import annotations

import numpy as np
import pytest
from logical_oracle import (
    oracle_cells,
    oracle_expected_loads,
    oracle_weights,
    oracle_worst_case_loads,
)

from repro.core import (
    Cluster,
    EarlyTerminatedRobustPartitioning,
    NormalOccurrenceModel,
    ParameterSpace,
    RLDConfig,
    RLDOptimizer,
    RobustLogicalSolution,
)
from repro.core import logical as logical_module
from repro.core.logical import MAX_SCAN_POINTS, PlanDiscovery
from repro.query import LogicalPlan, Operator, PlanCostModel, Query, StreamSchema
from repro.workloads import build_q1, build_q2


@pytest.fixture
def setup(four_op_query):
    est = four_op_query.default_estimates({"sel:1": 1, "sel:2": 3})
    space = ParameterSpace.from_estimates(est, points_per_level=3)
    plans = [
        LogicalPlan((3, 2, 1, 0)),
        LogicalPlan((3, 1, 2, 0)),
    ]
    solution = RobustLogicalSolution(four_op_query, space, plans)
    return four_op_query, space, solution


def _cli_compile(query):
    """``repro compile`` at its defaults: selectivities at level 3, rate at 2."""
    uncertainty = {op.selectivity_param: 3 for op in query.operators}
    uncertainty["rate"] = 2
    optimizer = RLDOptimizer(
        query, Cluster.homogeneous(4, 380.0), config=RLDConfig(epsilon=0.2)
    )
    return optimizer.solve(query.default_estimates(uncertainty))


@pytest.fixture(scope="module")
def q1_cli():
    """The CLI-default q1 compile (84,035-point space, scanned exactly)."""
    return _cli_compile(build_q1())


def _small_solutions(four_op_query):
    """Exact-grid fixtures: three plans on a 2-D space, an ERP plan set
    on q1, and plans whose costs tie exactly at every point."""
    twins = Query(
        "twins",
        (
            Operator(op_id=0, name="a", cost_per_tuple=2.0, selectivity=0.5),
            Operator(op_id=1, name="b", cost_per_tuple=2.0, selectivity=0.5),
            Operator(op_id=2, name="c", cost_per_tuple=1.0, selectivity=0.6),
        ),
        (StreamSchema("S", (), base_rate=100.0),),
    )
    space = ParameterSpace.from_estimates(
        twins.default_estimates({"sel:2": 2, "rate": 1})
    )
    orders = ((1, 0, 2), (2, 1, 0), (0, 1, 2), (2, 0, 1))
    plans = [LogicalPlan(order) for order in orders]
    yield RobustLogicalSolution(twins, space, plans)
    est = four_op_query.default_estimates({"sel:1": 1, "sel:2": 3})
    space = ParameterSpace.from_estimates(est, points_per_level=3)
    plans = [LogicalPlan((3, 2, 1, 0)), LogicalPlan((3, 1, 2, 0)),
             LogicalPlan((0, 1, 2, 3))]
    yield RobustLogicalSolution(four_op_query, space, plans)
    query = build_q1()
    uncertainty = {op.selectivity_param: 3 for op in query.operators[:3]}
    uncertainty["rate"] = 1
    space = ParameterSpace.from_estimates(
        query.default_estimates(uncertainty), points_per_level=1
    )
    yield EarlyTerminatedRobustPartitioning(
        query, space, epsilon=0.02
    ).run().solution


class TestConstruction:
    def test_deduplicates_preserving_order(self, four_op_query, setup):
        _, space, _ = setup
        plans = [
            LogicalPlan((0, 1, 2, 3)),
            LogicalPlan((3, 2, 1, 0)),
            LogicalPlan((0, 1, 2, 3)),
        ]
        solution = RobustLogicalSolution(four_op_query, space, plans)
        assert solution.plans == (LogicalPlan((0, 1, 2, 3)), LogicalPlan((3, 2, 1, 0)))

    def test_empty_rejected(self, four_op_query, setup):
        _, space, _ = setup
        with pytest.raises(ValueError, match="at least one plan"):
            RobustLogicalSolution(four_op_query, space, [])

    def test_contains_and_len(self, setup):
        _, _, solution = setup
        assert len(solution) == 2
        assert LogicalPlan((3, 2, 1, 0)) in solution
        assert LogicalPlan((0, 1, 2, 3)) not in solution

    def test_discoveries_kept(self, four_op_query, setup):
        _, space, _ = setup
        plan = LogicalPlan((0, 1, 2, 3))
        solution = RobustLogicalSolution(
            four_op_query, space, [plan], discoveries=[PlanDiscovery(plan, 3)]
        )
        assert solution.discoveries[0].at_call == 3


class TestRouting:
    def test_best_plan_is_argmin_cost(self, setup):
        query, space, solution = setup
        model = PlanCostModel(query)
        for index in space.grid_indices():
            point = space.point_at(index)
            chosen = solution.best_plan_at(point)
            best_cost = min(model.plan_cost(p, point) for p in solution.plans)
            assert model.plan_cost(chosen, point) == pytest.approx(best_cost)

    def test_plan_cells_partition_grid(self, setup):
        _, space, solution = setup
        cells = solution.plan_cells()
        for flat in cells.values():
            assert np.all(np.diff(flat) > 0)
        all_flat = np.sort(np.concatenate(list(cells.values())))
        assert np.array_equal(all_flat, np.arange(space.n_points))

    def test_corner_plans_own_their_corners(self, setup):
        query, space, solution = setup
        lo_plan = solution.best_plan_at(space.full_region().pnt_lo)
        hi_plan = solution.best_plan_at(space.full_region().pnt_hi)
        # The fixture's two plans are the corner optima.
        assert lo_plan == LogicalPlan((3, 2, 1, 0))
        assert hi_plan == LogicalPlan((3, 1, 2, 0))


class TestWeights:
    def test_weights_sum_to_total_mass(self, setup):
        _, space, solution = setup
        occurrence = NormalOccurrenceModel(space)
        weights = solution.plan_weights(occurrence)
        assert sum(weights.values()) == pytest.approx(occurrence.total_mass(), rel=1e-9)

    def test_area_fractions_sum_to_one(self, setup):
        _, _, solution = setup
        fractions = solution.area_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_weights_default_occurrence(self, setup):
        _, _, solution = setup
        weights = solution.plan_weights()
        assert all(w >= 0 for w in weights.values())


class TestWorstCaseLoads:
    def test_loads_dominate_every_cell(self, setup, q1_cli):
        for solution in (setup[2], q1_cli.logical):
            names = list(solution.space.names)
            for plan, cells in solution.plan_cells().items():
                worst = solution.worst_case_loads(plan)
                loads = solution.cost_model.operator_loads_batch(
                    plan, solution.space.points_matrix(cells), names
                )
                for op_id, load in loads.items():
                    assert np.all(load <= worst[op_id]), (plan, op_id)

    def test_every_operator_present(self, setup):
        query, _, solution = setup
        worst = solution.worst_case_loads(solution.plans[0])
        assert set(worst) == set(query.operator_ids)

    def test_plan_without_cells_uses_space_corner(self, four_op_query, setup):
        _, space, _ = setup
        # A dominated plan (never cheapest) still gets conservative loads.
        dominated = LogicalPlan((0, 1, 2, 3))
        winner = LogicalPlan((3, 2, 1, 0))
        solution = RobustLogicalSolution(four_op_query, space, [winner, dominated])
        assert len(solution.plan_cells()[dominated]) == 0
        worst = solution.worst_case_loads(dominated)
        corner = space.full_region().pnt_hi
        assert worst == solution.cost_model.operator_loads(dominated, corner)


class TestScanMatchesOracle:
    """The blocked scan against the per-cell path it replaced."""

    @pytest.mark.parametrize("block_rows", [7, logical_module.SCAN_BLOCK_ROWS])
    def test_scan_matches_per_cell_path(self, four_op_query, monkeypatch, block_rows):
        monkeypatch.setattr(logical_module, "SCAN_BLOCK_ROWS", block_rows)
        for solution in _small_solutions(four_op_query):
            space = solution.space
            occurrence = NormalOccurrenceModel(space, sigma_fraction=0.4)
            expected = oracle_cells(solution)
            cells = solution.plan_cells()
            weights = solution.plan_weights(occurrence)
            reference = oracle_weights(solution, occurrence)
            assert not solution.uses_sampled_grid
            for plan in solution.plans:
                flat = sorted(
                    int(np.ravel_multi_index(index, space.shape))
                    for index in expected[plan]
                )
                assert cells[plan].tolist() == flat
                for k in flat:
                    point = space.point_at(space.index_of_flat(k))
                    assert solution.best_plan_at(point) == plan
                assert weights[plan] == pytest.approx(reference[plan], rel=1e-12)
                assert solution.worst_case_loads(
                    plan
                ) == oracle_worst_case_loads(solution, plan)
                typical = solution.expected_loads(plan, occurrence)
                oracle = oracle_expected_loads(solution, plan, occurrence)
                assert typical == pytest.approx(oracle, rel=1e-12)


class TestCliDefaultCompile:
    """Def. 3 on the default compile, now that it is scanned exactly."""

    def test_scans_every_point_and_keeps_the_placement(self, q1_cli):
        logical = q1_cli.logical
        assert not logical.uses_sampled_grid
        assert logical.scanned_points == q1_cli.space.n_points == 84_035
        assert sum(len(c) for c in logical.plan_cells().values()) == 84_035
        assert repr(q1_cli.physical.physical_plan) == (
            "PhysicalPlan({op0} | {op1} | {op2} | {op3,op4})"
        )
        assert len(q1_cli.supported_plans) == len(logical.plans) == 11

    def test_placement_fits_every_point_of_supported_regions(self, q1_cli):
        logical = q1_cli.logical
        names = list(q1_cli.space.names)
        cells = logical.plan_cells()
        placement = q1_cli.physical.physical_plan
        for plan in q1_cli.supported_plans:
            loads = logical.cost_model.operator_loads_batch(
                plan, q1_cli.space.points_matrix(cells[plan]), names
            )
            for ops, capacity in zip(placement.assignment, q1_cli.cluster.capacities):
                node_load = np.zeros(len(cells[plan]))
                for op_id in sorted(ops):
                    node_load = node_load + loads[op_id]
                assert np.all(node_load <= capacity * (1 + 1e-12)), (plan, ops)


class TestSampledScan:
    def test_q2_samples_and_bounds_loads_by_the_top_corner(
        self, bounded_points_matrix
    ):
        # The q2 space has 1.4e9 points: the compile must work in blocks.
        with bounded_points_matrix():
            solution = _cli_compile(build_q2())
        logical = solution.logical
        assert logical.uses_sampled_grid
        assert logical.scanned_points == MAX_SCAN_POINTS < solution.space.n_points
        cells = logical.plan_cells()
        assert sum(len(c) for c in cells.values()) == MAX_SCAN_POINTS
        corner = solution.space.full_region().pnt_hi
        names = list(solution.space.names)
        for plan in logical.plans:
            worst = logical.worst_case_loads(plan)
            assert worst == logical.cost_model.operator_loads(plan, corner)
            loads = logical.cost_model.operator_loads_batch(
                plan, solution.space.points_matrix(cells[plan]), names
            )
            for op_id, load in loads.items():
                assert np.all(load <= worst[op_id])
