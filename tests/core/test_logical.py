"""Tests for robust logical solutions (plan routing, regions, weights)."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from itertools import islice
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from logical_oracle import (
    oracle_cells,
    oracle_expected_loads,
    oracle_scan,
    oracle_weights,
    oracle_worst_case_loads,
)
from object_graph import references

from repro.core import (
    Cluster,
    CorrelatedOccurrenceModel,
    Dimension,
    EarlyTerminatedRobustPartitioning,
    NormalOccurrenceModel,
    ParameterSpace,
    RLDConfig,
    RLDOptimizer,
    RobustLogicalSolution,
)
from repro.core import logical as logical_module
from repro.core.logical import MAX_SCAN_POINTS, SCAN_BLOCK_ROWS, PlanDiscovery
from repro.core.physical import PlanLoadTable
from repro.query import LogicalPlan, Operator, PlanCostModel, Query, StreamSchema
from repro.workloads import build_q1, build_q2

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "robustness_q1_q2.json"


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


def _occurrence(solution):
    """The occurrence model an ``RLDConfig()`` compile weighs plans by."""
    return NormalOccurrenceModel(
        solution.space, sigma_fraction=RLDConfig().sigma_fraction
    )


def _cheapest_plan(solution, point):
    """The runtime classifier's rule: least cost, ties to the smaller
    ``plan.order``."""
    cost = solution.cost_model.plan_cost
    return min(solution.plans, key=lambda plan: (cost(plan, point), plan.order))


@pytest.fixture(scope="module")
def q1_cli():
    """The CLI-default q1 compile (84,035-point space, scanned exactly)."""
    return _cli_compile(build_q1())


@pytest.fixture(scope="module")
def q2_cli():
    """The CLI-default q2 compile (1.4e9-point space, scanned by sample)."""
    return _cli_compile(build_q2())


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
        for plan, cells in solution.plan_cells().items():
            for flat in cells:
                point = space.point_at(space.index_of_flat(int(flat)))
                best_cost = min(model.plan_cost(p, point) for p in solution.plans)
                assert model.plan_cost(plan, point) == pytest.approx(best_cost)
                assert _cheapest_plan(solution, point) == plan

    def test_plan_cells_partition_grid(self, setup):
        _, space, solution = setup
        cells = solution.plan_cells()
        for flat in cells.values():
            assert np.all(np.diff(flat) > 0)
        all_flat = np.sort(np.concatenate(list(cells.values())))
        assert np.array_equal(all_flat, np.arange(space.n_points))

    def test_corner_plans_own_their_corners(self, setup):
        query, space, solution = setup
        lo_plan = _cheapest_plan(solution, space.full_region().pnt_lo)
        hi_plan = _cheapest_plan(solution, space.full_region().pnt_hi)
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
            for plan, cells in solution.plan_cells().items():
                worst = solution.worst_case_loads(plan)
                loads = _batch_loads(solution.cost_model, plan, solution.space, cells)
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
                    assert _cheapest_plan(solution, point) == plan
                assert weights[plan] == pytest.approx(reference[plan], rel=1e-12)
                assert solution.worst_case_loads(
                    plan
                ) == oracle_worst_case_loads(solution, plan)
                typical = solution.expected_loads(plan, occurrence)
                oracle = oracle_expected_loads(solution, plan, occurrence)
                assert typical == pytest.approx(oracle, rel=1e-12)


@st.composite
def _scan_cases(draw):
    """A small query, an exact space, a plan set and an occurrence model.

    Costs and selectivities come from two values each, so orders often
    tie exactly; a dimension may be pinned (one step), the rate may be
    absent, and a single dimension makes a 1-D space.
    """
    n_ops = draw(st.integers(1, 4))
    operators = tuple(
        Operator(
            op_id=i,
            name=f"o{i}",
            cost_per_tuple=draw(st.sampled_from([1.0, 2.5])),
            selectivity=draw(st.sampled_from([0.5, 0.8])),
        )
        for i in range(n_ops)
    )
    query = Query("scan", operators, (StreamSchema("S", (), base_rate=100.0),))
    estimates = {"rate": query.driving_rate}
    estimates.update({op.selectivity_param: op.selectivity for op in operators})
    names = draw(
        st.lists(
            st.sampled_from(sorted(estimates)), min_size=1, max_size=4, unique=True
        )
    )
    dimensions = []
    for name in names:
        steps = draw(st.integers(1, 4))
        level = 0.0 if steps == 1 else draw(st.sampled_from([0.1, 0.3]))
        estimate = estimates[name]
        dimensions.append(
            Dimension(name, estimate * (1 - level), estimate * (1 + level), steps)
        )
    space = ParameterSpace(dimensions)
    orders = draw(
        st.lists(
            st.permutations(range(n_ops)), min_size=1, max_size=5,
            unique_by=tuple,
        )
    )
    plans = [LogicalPlan(tuple(order)) for order in orders]
    varying = sum(1 for d in dimensions if d.steps > 1)
    if varying in (1, 2) and draw(st.booleans()):
        occurrence = CorrelatedOccurrenceModel.anti_synchronized(
            space, rho=draw(st.sampled_from([-0.6, 0.0, 0.5]))
        )
    else:
        occurrence = NormalOccurrenceModel(
            space,
            sigma_fraction=draw(st.sampled_from([0.25, 0.5])),
            means={d.name: d.lo + 0.3 * d.width for d in dimensions}
            if draw(st.booleans())
            else None,
        )
    block_rows = draw(st.sampled_from([3, 7, SCAN_BLOCK_ROWS]))
    slab_rows = draw(st.sampled_from([1, 5, logical_module.SCAN_SLAB_ROWS]))
    return query, space, plans, occurrence, block_rows, slab_rows


class TestProductScanMatchesOracle:
    """The axis-column scan against scalar per-cell values, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(_scan_cases())
    def test_labels_weights_and_loads(self, case):
        query, space, plans, occurrence, block_rows, slab_rows = case
        with patch.object(logical_module, "SCAN_BLOCK_ROWS", block_rows), patch.object(
            logical_module, "SCAN_SLAB_ROWS", slab_rows
        ):
            solution = RobustLogicalSolution(query, space, plans)
            cells = solution.plan_cells()
            weights = solution.plan_weights(occurrence)
            expected = oracle_cells(solution)
            reference = oracle_scan(solution, occurrence, block_rows)
            assert not solution.uses_sampled_grid
            for plan in solution.plans:
                flat = sorted(
                    int(np.ravel_multi_index(index, space.shape))
                    for index in expected[plan]
                )
                assert cells[plan].tolist() == flat
                weight, worst, typical = reference[plan]
                assert weights[plan] == weight
                assert solution.worst_case_loads(plan) == worst
                assert solution.expected_loads(plan, occurrence) == typical


def _batch_loads(model, plan, space, flat):
    """Operator id → load of ``plan`` at the grid points at ``flat``."""
    columns = space.values_at(np.unravel_index(flat, space.shape))
    rate, sels = model.resolve_axes(columns, space.names)
    return dict(zip(plan, model.loads_at(model.steps(plan), rate, sels)))


def _fresh(solution):
    """The same plans over the same space, with nothing memoized yet."""
    return RobustLogicalSolution(solution.query, solution.space, solution.plans)


def _table_faces(table):
    return (
        table.plans,
        [table.weight_of(plan) for plan in table.plans],
        table.load_matrix.tolist(),
        [table.expected_loads(table.mask_of([plan])) for plan in table.plans],
    )


def _assert_matches_oracle(solution, model):
    weights = solution.plan_weights(model)
    reference = oracle_weights(solution, model)
    for plan in solution.plans:
        assert weights[plan] == pytest.approx(reference[plan], rel=1e-12)
        assert solution.expected_loads(plan, model) == pytest.approx(
            oracle_expected_loads(solution, plan, model), rel=1e-12
        )
        assert solution.worst_case_loads(plan) == oracle_worst_case_loads(
            solution, plan
        )


class TestFusedPass:
    """One pass derives labels, weights, worst-case and typical loads."""

    def test_call_order_does_not_change_the_load_table(self, q1_cli):
        space = q1_cli.space
        occurrence = NormalOccurrenceModel(space, sigma_fraction=0.5)
        table = PlanLoadTable.from_solution(
            _fresh(q1_cli.logical), occurrence=occurrence
        )
        # The traced benchmark's order: cells first, then each stage.
        logical = _fresh(q1_cli.logical)
        occurrence = NormalOccurrenceModel(space, sigma_fraction=0.5)
        logical.plan_cells()
        weights = logical.plan_weights(occurrence)
        loads = {plan: logical.worst_case_loads(plan) for plan in logical.plans}
        typical = {
            plan: logical.expected_loads(plan, occurrence) for plan in logical.plans
        }
        staged = PlanLoadTable(logical.plans, loads, weights, typical_loads=typical)
        assert _table_faces(staged) == _table_faces(table)

    def test_a_second_occurrence_model_recomputes(self, four_op_query):
        for solution in _small_solutions(four_op_query):
            space = solution.space
            first = NormalOccurrenceModel(space, sigma_fraction=0.4)
            second = NormalOccurrenceModel(
                space,
                sigma_fraction=0.25,
                means={d.name: d.lo + 0.3 * d.width for d in space.dimensions},
            )
            for model in (first, second, first):
                _assert_matches_oracle(solution, model)

    def test_correlated_occurrence_matches_the_oracle(self, four_op_query):
        # The two 2-D fixtures: with three or more correlated dimensions
        # SciPy's CDF is a quasi-Monte Carlo estimate, and a batched call
        # need not match the oracle's per-cell calls to 1e-12.
        for solution in islice(_small_solutions(four_op_query), 2):
            space = solution.space
            assert space.n_dims == 2
            model = CorrelatedOccurrenceModel(
                space, correlation=[[1.0, -0.6], [-0.6, 1.0]]
            )
            _assert_matches_oracle(solution, model)

    @staticmethod
    def _count_calls(monkeypatch, *targets):
        calls = {}

        for cls, name in targets:
            inner = getattr(cls, name)
            calls[f"{cls.__name__}.{name}"] = 0

            def wrapper(self, *args, _inner=inner, _key=f"{cls.__name__}.{name}"):
                calls[_key] += 1
                return _inner(self, *args)

            monkeypatch.setattr(cls, name, wrapper)
        return calls

    def test_from_solution_walks_the_grid_once(self, q1_cli, q2_cli, monkeypatch):
        # Every scan block is its grid-index columns, and values and
        # masses are looked up on them once per block.  The exact q1
        # scan expands one run per block and unravels no flat position;
        # the sampled q2 scan unravels each block once and reads its
        # values twice: for its labels, then sorted by label.
        calls = self._count_calls(
            monkeypatch,
            (ParameterSpace, "run_indices"),
            (ParameterSpace, "values_at"),
            (NormalOccurrenceModel, "masses"),
        )
        unravel = np.unravel_index
        unravels = []

        def counted_unravel(*args, **kwargs):
            unravels.append(args)
            return unravel(*args, **kwargs)

        monkeypatch.setattr(np, "unravel_index", counted_unravel)
        PlanLoadTable.from_solution(
            _fresh(q1_cli.logical), occurrence=_occurrence(q1_cli)
        )
        blocks = -(-q1_cli.space.n_points // SCAN_BLOCK_ROWS)
        assert blocks == 11
        assert not unravels
        assert calls == {
            "ParameterSpace.run_indices": blocks,
            "ParameterSpace.values_at": blocks,
            "NormalOccurrenceModel.masses": blocks,
        }
        calls.update(dict.fromkeys(calls, 0))
        PlanLoadTable.from_solution(
            _fresh(q2_cli.logical), occurrence=_occurrence(q2_cli)
        )
        blocks = MAX_SCAN_POINTS // SCAN_BLOCK_ROWS
        assert blocks == 32
        assert len(unravels) == blocks
        assert calls == {
            "ParameterSpace.run_indices": 0,
            "ParameterSpace.values_at": 2 * blocks,
            "NormalOccurrenceModel.masses": blocks,
        }

    def test_exact_scan_working_set_is_bounded(self, q1_cli):
        # Slabs and blocks bound the exact pass: no temporary spans the
        # 84,035-point grid except the kept labels.
        logical = _fresh(q1_cli.logical)
        occurrence = _occurrence(q1_cli)
        tracemalloc.start()
        try:
            PlanLoadTable.from_solution(logical, occurrence=occurrence)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6


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
        cells = logical.plan_cells()
        placement = q1_cli.physical.physical_plan
        for plan in q1_cli.supported_plans:
            loads = _batch_loads(logical.cost_model, plan, q1_cli.space, cells[plan])
            for ops, capacity in zip(placement.assignment, q1_cli.cluster.capacities):
                node_load = np.zeros(len(cells[plan]))
                for op_id in sorted(ops):
                    node_load = node_load + loads[op_id]
                assert np.all(node_load <= capacity * (1 + 1e-12)), (plan, ops)


class TestSampledScan:
    def test_q2_samples_and_bounds_loads_by_the_top_corner(
        self, bounded_values_at
    ):
        # The q2 space has 1.4e9 points: the compile must work in blocks.
        with bounded_values_at():
            solution = _cli_compile(build_q2())
        logical = solution.logical
        assert logical.uses_sampled_grid
        assert logical.scanned_points == MAX_SCAN_POINTS < solution.space.n_points
        cells = logical.plan_cells()
        assert sum(len(c) for c in cells.values()) == MAX_SCAN_POINTS
        corner = solution.space.full_region().pnt_hi
        for plan in logical.plans:
            worst = logical.worst_case_loads(plan)
            assert worst == logical.cost_model.operator_loads(plan, corner)
            loads = _batch_loads(logical.cost_model, plan, solution.space, cells[plan])
            for op_id, load in loads.items():
                assert np.all(load <= worst[op_id])


def _label_array(logical):
    """Plan index per scanned point, points in ascending flat order."""
    cells = logical.plan_cells()
    flat = np.sort(np.concatenate(list(cells.values())))
    labels = np.empty(len(flat), dtype="<i8")
    for i, plan in enumerate(logical.plans):
        labels[np.searchsorted(flat, cells[plan])] = i
    return labels


def golden_record(solution):
    """What the golden file pins of one compile, as JSON-ready values.

    Floats go through ``json`` unchanged (``repr`` round-trips), so the
    comparison is bitwise.
    """
    logical = solution.logical
    op_ids = solution.query.operator_ids
    labels = _label_array(logical)
    occurrence = _occurrence(solution)
    weights = logical.plan_weights(occurrence)
    return {
        "plans": [list(plan.order) for plan in logical.plans],
        "scanned_points": int(len(labels)),
        "labels_sha256": hashlib.sha256(labels.tobytes()).hexdigest(),
        "weights": [weights[plan] for plan in logical.plans],
        "worst_case_loads": [
            [logical.worst_case_loads(plan)[op] for op in op_ids]
            for plan in logical.plans
        ],
        "typical_loads": [
            [logical.expected_loads(plan, occurrence)[op] for op in op_ids]
            for plan in logical.plans
        ],
        "placement": repr(solution.physical.physical_plan),
        "supported_plans": [list(plan.order) for plan in solution.supported_plans],
        "score": solution.physical.score,
    }


class TestGoldenCompiles:
    """The CLI-default q1 compile (exact scan) and the sampled q2 compile,
    pinned bit for bit: labels, weights, worst-case and typical loads,
    placement and score, recorded before the running-minimum labels and
    the in-place load fold replaced the stacked argmin and the per-plan
    load dicts."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_q1_default_compile(self, q1_cli, golden):
        assert golden_record(q1_cli) == golden["q1"]

    def test_q2_sampled_compile(self, q2_cli, golden):
        assert q2_cli.logical.uses_sampled_grid
        assert golden_record(q2_cli) == golden["q2"]


@pytest.mark.parametrize("compiled", ["q1_cli", "q2_cli"])
def test_every_array_a_compiled_solution_holds_is_frozen(compiled, request):
    # RLD compiles once and then serves its arrays, by reference, to
    # OptPrune and the runtime classifier: none of them may be writable.
    solution = request.getfixturevalue(compiled)
    logical = solution.logical
    logical.plan_cells()
    logical.plan_weights()
    logical.area_fractions()
    arrays = [
        (path, obj)
        for path, obj in references(solution, "solution")
        if isinstance(obj, np.ndarray)
    ]
    assert len(arrays) > 10  # the walk reached the memos
    assert [path for path, array in arrays if array.flags.writeable] == []
