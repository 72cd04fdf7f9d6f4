"""Tests for clusters, plan load tables, and physical plans (Def. 3)."""

from __future__ import annotations

import pytest

from repro.core import Cluster, PhysicalPlan, PlanLoadTable
from repro.query import LogicalPlan


def _table(weights=(0.6, 0.4)) -> PlanLoadTable:
    """Two plans over three operators with hand-set loads."""
    plan_a = LogicalPlan((0, 1, 2))
    plan_b = LogicalPlan((2, 1, 0))
    loads = {
        plan_a: {0: 30.0, 1: 20.0, 2: 10.0},
        plan_b: {0: 10.0, 1: 25.0, 2: 30.0},
    }
    return PlanLoadTable(
        [plan_a, plan_b], loads, {plan_a: weights[0], plan_b: weights[1]}
    )


class TestCluster:
    def test_homogeneous_factory(self):
        cluster = Cluster.homogeneous(3, 100.0)
        assert cluster.n_nodes == 3
        assert cluster.is_homogeneous
        assert cluster.uniform_capacity == 100.0
        assert cluster.total_capacity == 300.0

    def test_heterogeneous_has_no_uniform_capacity(self):
        cluster = Cluster((100.0, 50.0))
        assert not cluster.is_homogeneous
        with pytest.raises(ValueError, match="heterogeneous"):
            _ = cluster.uniform_capacity

    @pytest.mark.parametrize("caps", [(), (0.0,), (100.0, -1.0)])
    def test_invalid_capacities(self, caps):
        with pytest.raises(ValueError):
            Cluster(tuple(caps))

    def test_invalid_node_count(self):
        with pytest.raises(ValueError, match="n_nodes"):
            Cluster.homogeneous(0, 10.0)


class TestPlanLoadTable:
    def test_plans_ordered_by_weight_desc(self):
        table = _table(weights=(0.2, 0.8))
        assert table.weight_of(table.plans[0]) == 0.8
        assert table.weight_of(table.plans[1]) == 0.2

    def test_load_matrix_is_frozen(self):
        # Shared by reference with every mask/score query: an in-place
        # write must raise at the write site.
        matrix = _table().load_matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = -1.0
        with pytest.raises(ValueError):
            matrix[1:, :][0, 0] = -1.0

    def test_load_reads_the_load_matrix(self):
        # One copy of the loads: ``load`` and the matrix queries agree,
        # rows in weight order.
        table = _table(weights=(0.2, 0.8))
        assert table.plans[0] == LogicalPlan((2, 1, 0))
        assert table.load(0, 2) == 30.0
        for i in range(table.n_plans):
            for j, op_id in enumerate(table.operator_ids):
                assert table.load(i, op_id) == table.load_matrix[i, j]
        with pytest.raises(KeyError):
            table.load(0, 7)

    def test_mask_round_trip(self):
        table = _table()
        mask = table.mask_of([table.plans[1]])
        assert table.plans_in_mask(mask) == (table.plans[1],)

    def test_score_sums_weights(self):
        table = _table(weights=(0.6, 0.4))
        assert table.score(table.full_mask) == pytest.approx(1.0)
        assert table.score(0) == 0.0

    def test_config_load(self):
        table = _table()
        plan_a_index = table.plans.index(LogicalPlan((0, 1, 2)))
        assert table.config_load(plan_a_index, [0, 2]) == pytest.approx(40.0)

    def test_support_mask_respects_capacity(self):
        table = _table()
        # {0,1} costs 50 under plan A, 35 under plan B.
        mask_40 = table.support_mask([0, 1], capacity=40.0)
        supported = table.plans_in_mask(mask_40)
        assert supported == (LogicalPlan((2, 1, 0)),)
        assert table.support_mask([0, 1], capacity=60.0) == table.full_mask
        assert table.support_mask([0, 1], capacity=1.0) == 0

    def test_max_loads_is_per_operator_max(self):
        table = _table()
        peak = table.max_loads()
        assert peak == {0: 30.0, 1: 25.0, 2: 30.0}

    def test_max_loads_single_plan(self):
        table = _table()
        index = table.plans.index(LogicalPlan((0, 1, 2)))
        loads = table.max_loads(1 << index)
        assert loads == {0: 30.0, 1: 20.0, 2: 10.0}

    def test_max_loads_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty plan mask"):
            _table().max_loads(0)

    def test_mismatched_operator_sets_rejected(self):
        plan_a = LogicalPlan((0, 1))
        plan_b = LogicalPlan((1, 0))
        loads = {plan_a: {0: 1.0, 1: 1.0}, plan_b: {0: 1.0}}
        with pytest.raises(ValueError, match="same operator set"):
            PlanLoadTable([plan_a, plan_b], loads, {plan_a: 0.5, plan_b: 0.5})


class TestPhysicalPlan:
    def test_valid_partition(self):
        plan = PhysicalPlan((frozenset({0, 1}), frozenset({2}), frozenset()))
        assert plan.covers([0, 1, 2])
        assert plan.node_of(2) == 1
        assert plan.nodes_used == 2

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="multiple nodes"):
            PhysicalPlan((frozenset({0, 1}), frozenset({1})))

    def test_covers_detects_missing_operator(self):
        plan = PhysicalPlan((frozenset({0}),))
        assert not plan.covers([0, 1])

    def test_node_of_unplaced_raises(self):
        plan = PhysicalPlan((frozenset({0}),))
        with pytest.raises(KeyError):
            plan.node_of(7)

    def test_support_mask_is_and_of_configs(self):
        table = _table()
        cluster = Cluster.homogeneous(2, 40.0)
        plan = PhysicalPlan((frozenset({0, 1}), frozenset({2})))
        # {0,1}: A=50 (too big), B=35 ok → only B.  {2}: A=10, B=30 both ok.
        mask = plan.support_mask(table, cluster)
        assert table.plans_in_mask(mask) == (LogicalPlan((2, 1, 0)),)

    def test_support_mask_empty_node_neutral(self):
        table = _table()
        cluster = Cluster.homogeneous(3, 100.0)
        plan = PhysicalPlan((frozenset({0, 1, 2}), frozenset(), frozenset()))
        assert plan.support_mask(table, cluster) == table.full_mask

    def test_support_mask_node_count_mismatch(self):
        table = _table()
        plan = PhysicalPlan((frozenset({0, 1, 2}),))
        with pytest.raises(ValueError, match="nodes"):
            plan.support_mask(table, Cluster.homogeneous(2, 100.0))
