"""Cross-cutting property tests over randomly generated instances.

These pin the structural invariants the algorithms rely on, against
hypothesis-generated queries, spaces, and load tables — the places
where a subtle regression would silently corrupt results rather than
crash.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Cluster,
    EarlyTerminatedRobustPartitioning,
    ExhaustiveSearch,
    ParameterSpace,
    PlanLoadTable,
    WeightedRobustPartitioning,
    compute_plan_diagram,
    greedy_phy,
    measure_coverage,
    opt_prune,
)
from repro.query import LogicalPlan, Operator, Query, StreamSchema, make_optimizer


def _random_query(data, n_ops: int) -> Query:
    ops = tuple(
        Operator(
            op_id=i,
            name=f"op{i}",
            cost_per_tuple=data.draw(
                st.floats(0.2, 5.0), label=f"cost{i}"
            ),
            selectivity=data.draw(
                st.floats(0.2, 1.2), label=f"sel{i}"
            ),
        )
        for i in range(n_ops)
    )
    return Query("prop", ops, (StreamSchema("S", base_rate=100.0),))


class TestPartitioningInvariants:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_wrp_verified_regions_tile_space(self, data):
        """WRP's verified regions partition the grid exactly."""
        query = _random_query(data, data.draw(st.integers(3, 4), label="n"))
        level = data.draw(st.integers(1, 3), label="level")
        dims = {f"sel:0": level, f"sel:1": level}
        space = ParameterSpace.from_estimates(
            query.default_estimates(dims), points_per_level=2
        )
        result = WeightedRobustPartitioning(query, space, epsilon=0.15).run()
        regions = [
            region
            for plan in result.solution.plans
            for region in result.solution.verified_regions_of(plan)
        ]
        covered = [idx for region in regions for idx in region.indices()]
        assert sorted(covered) == sorted(space.grid_indices())

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_erp_never_more_calls_and_subset_of_es_plans(self, data):
        """ERP's plan set ⊆ ES's, at no more optimizer calls."""
        query = _random_query(data, 4)
        space = ParameterSpace.from_estimates(
            query.default_estimates({"sel:1": 2, "sel:2": 2}),
            points_per_level=2,
        )
        erp = EarlyTerminatedRobustPartitioning(query, space, epsilon=0.1).run()
        es = ExhaustiveSearch(query, space, epsilon=0.1).run()
        assert erp.optimizer_calls <= es.optimizer_calls
        assert set(erp.solution.plans) <= set(es.solution.plans)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_es_full_coverage_at_its_own_epsilon(self, data):
        """The set of all pointwise optima always ε-covers the grid."""
        query = _random_query(data, 3)
        space = ParameterSpace.from_estimates(
            query.default_estimates({"sel:0": 2, "sel:2": 2}),
            points_per_level=2,
        )
        es = ExhaustiveSearch(query, space, epsilon=0.0).run()
        diagram = compute_plan_diagram(space, make_optimizer(query))
        coverage = measure_coverage(es.solution.plans, diagram, 0.0)
        assert coverage == 1.0


class TestLoadTableInvariants:
    def _table(self, data, n_ops: int, n_plans: int) -> PlanLoadTable:
        orders = [tuple(range(n_ops))]
        if n_plans >= 2:
            orders.append(tuple(reversed(range(n_ops))))
        if n_plans >= 3:
            orders.append(tuple(range(1, n_ops)) + (0,))
        loads = {
            LogicalPlan(order): {
                op: data.draw(st.floats(1.0, 60.0), label=f"l{order}{op}")
                for op in range(n_ops)
            }
            for order in orders
        }
        weights = {plan: 1.0 / len(loads) for plan in loads}
        return PlanLoadTable(list(loads), loads, weights)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_support_mask_antitone_in_operators(self, data):
        """Adding operators to a configuration never gains plans."""
        table = self._table(
            data, data.draw(st.integers(3, 5), label="ops"), 3
        )
        capacity = data.draw(st.floats(40.0, 150.0), label="cap")
        ops = list(table.operator_ids)
        small = ops[:2]
        large = ops[:3]
        small_mask = table.support_mask(small, capacity)
        large_mask = table.support_mask(large, capacity)
        assert large_mask & small_mask == large_mask

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_support_mask_monotone_in_capacity(self, data):
        """More capacity never loses plans."""
        table = self._table(data, 4, 2)
        ops = list(table.operator_ids)[:3]
        lo = table.support_mask(ops, 50.0)
        hi = table.support_mask(ops, 120.0)
        assert lo & hi == lo

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_greedy_never_beats_optprune(self, data):
        table = self._table(data, 4, 3)
        cluster = Cluster.homogeneous(
            data.draw(st.integers(1, 3), label="nodes"),
            data.draw(st.floats(40.0, 200.0), label="cap"),
        )
        greedy = greedy_phy(table, cluster)
        optimal = opt_prune(table, cluster)
        assert greedy.score <= optimal.score + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_optprune_result_is_valid_partition(self, data):
        table = self._table(data, 4, 2)
        cluster = Cluster.homogeneous(2, data.draw(st.floats(60.0, 250.0), label="cap"))
        result = opt_prune(table, cluster)
        if result.physical_plan is not None:
            assert result.physical_plan.covers(table.operator_ids)
            # The reported support matches a recomputation from scratch.
            mask = result.physical_plan.support_mask(table, cluster)
            assert table.plans_in_mask(mask) == result.supported_plans


class TestSolutionInvariants:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_plan_weights_nonnegative_and_bounded(self, data):
        query = _random_query(data, 3)
        space = ParameterSpace.from_estimates(
            query.default_estimates({"sel:0": 2, "sel:1": 2}),
            points_per_level=2,
        )
        result = EarlyTerminatedRobustPartitioning(query, space, epsilon=0.2).run()
        weights = result.solution.plan_weights()
        assert all(w >= 0 for w in weights.values())
        assert sum(weights.values()) <= 1.0 + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_worst_case_loads_dominate_typical(self, data):
        query = _random_query(data, 3)
        space = ParameterSpace.from_estimates(
            query.default_estimates({"sel:0": 2, "sel:1": 2}),
            points_per_level=2,
        )
        solution = EarlyTerminatedRobustPartitioning(
            query, space, epsilon=0.2
        ).run().solution
        for plan in solution.plans:
            worst = solution.worst_case_loads(plan)
            typical = solution.expected_loads(plan)
            for op_id in query.operator_ids:
                assert worst[op_id] >= typical[op_id] - 1e-9
