"""Tests for OptPrune: optimality, pruning, and edge cases."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Cluster,
    PlanLoadTable,
    enumerate_feasible_configs,
    exhaustive_physical,
    greedy_phy,
    opt_prune,
)
from repro.query import LogicalPlan


def _table(loads_by_plan, weights=None):
    plans = [LogicalPlan(order) for order in loads_by_plan]
    loads = {LogicalPlan(order): table for order, table in loads_by_plan.items()}
    if weights is None:
        weights = {plan: 1.0 / len(plans) for plan in plans}
    else:
        weights = {LogicalPlan(o): w for o, w in weights.items()}
    return PlanLoadTable(plans, loads, weights)


class TestFeasibleConfigs:
    def test_all_subsets_when_capacity_huge(self):
        table = _table({(0, 1, 2): {0: 1.0, 1: 1.0, 2: 1.0}})
        configs = enumerate_feasible_configs(table, capacity=100.0)
        assert len(configs) == 7  # 2^3 − 1 non-empty subsets

    def test_oversized_subsets_excluded(self):
        table = _table({(0, 1): {0: 40.0, 1: 40.0}})
        configs = enumerate_feasible_configs(table, capacity=50.0)
        # Singletons fit; the pair (80) does not.
        assert set(configs) == {0b01, 0b10}

    def test_mask_reflects_which_plans_fit(self):
        table = _table(
            {
                (0, 1): {0: 40.0, 1: 10.0},
                (1, 0): {0: 10.0, 1: 40.0},
            }
        )
        configs = enumerate_feasible_configs(table, capacity=30.0)
        # Subset {op0} fits plan with load 10 but not the one with 40.
        op0_bit = 0b01
        assert op0_bit in configs
        assert bin(configs[op0_bit]).count("1") == 1

    @pytest.mark.parametrize("n_plans", [10, 70])
    def test_masks_match_support_mask_for_any_plan_count(self, n_plans):
        # Integer loads keep every subset sum exact, so both sides
        # compare the same totals against the capacity.
        rng = np.random.default_rng(n_plans)
        orders = list(itertools.islice(itertools.permutations(range(6)), n_plans))
        table = _table(
            {
                order: {op: float(rng.integers(1, 20)) for op in range(6)}
                for order in orders
            }
        )
        capacity = 40.0
        configs = enumerate_feasible_configs(table, capacity)
        expected = {}
        for subset in range(1, 1 << 6):
            ops = [op for op in range(6) if subset >> op & 1]
            mask = table.support_mask(ops, capacity)
            if mask:
                expected[subset] = mask
        assert configs == expected
        assert any(mask >> 62 for mask in configs.values()) == (n_plans > 62)

    def test_too_many_operators_rejected(self):
        ops = {i: 1.0 for i in range(19)}
        table = _table({tuple(range(19)): ops})
        with pytest.raises(ValueError, match="at most 18"):
            enumerate_feasible_configs(table, capacity=100.0)


class TestOptPrune:
    def test_matches_exhaustive_on_small_instance(self):
        table = _table(
            {
                (0, 1, 2, 3): {0: 35.0, 1: 25.0, 2: 20.0, 3: 10.0},
                (3, 2, 1, 0): {0: 12.0, 1: 28.0, 2: 26.0, 3: 30.0},
                (1, 0, 2, 3): {0: 20.0, 1: 40.0, 2: 15.0, 3: 8.0},
            },
            weights={(0, 1, 2, 3): 0.5, (3, 2, 1, 0): 0.3, (1, 0, 2, 3): 0.2},
        )
        cluster = Cluster.homogeneous(2, 60.0)
        optimal = exhaustive_physical(table, cluster)
        pruned = opt_prune(table, cluster)
        assert pruned.score == pytest.approx(optimal.score)

    def test_never_worse_than_greedy(self):
        table = _table(
            {
                (0, 1, 2): {0: 45.0, 1: 35.0, 2: 25.0},
                (2, 1, 0): {0: 20.0, 1: 40.0, 2: 45.0},
            },
            weights={(0, 1, 2): 0.55, (2, 1, 0): 0.45},
        )
        cluster = Cluster.homogeneous(2, 70.0)
        greedy = greedy_phy(table, cluster)
        pruned = opt_prune(table, cluster)
        assert pruned.score >= greedy.score - 1e-12

    def test_perfect_score_short_circuits(self):
        table = _table(
            {
                (0, 1): {0: 10.0, 1: 10.0},
                (1, 0): {0: 10.0, 1: 10.0},
            }
        )
        result = opt_prune(table, Cluster.homogeneous(2, 100.0))
        assert result.score == pytest.approx(1.0)
        assert set(result.supported_plans) == set(table.plans)

    def test_infeasible_instance(self):
        table = _table({(0,): {0: 100.0}})
        result = opt_prune(table, Cluster.homogeneous(1, 10.0))
        assert not result.feasible
        assert result.score == 0.0

    def test_result_is_valid_partition(self):
        table = _table(
            {
                (0, 1, 2, 3): {0: 30.0, 1: 25.0, 2: 20.0, 3: 15.0},
                (3, 2, 1, 0): {0: 15.0, 1: 20.0, 2: 25.0, 3: 30.0},
            }
        )
        cluster = Cluster.homogeneous(3, 45.0)
        result = opt_prune(table, cluster)
        assert result.physical_plan is not None
        assert result.physical_plan.covers([0, 1, 2, 3])
        assert result.physical_plan.n_nodes == cluster.n_nodes

    def test_requires_homogeneous_cluster(self):
        table = _table({(0,): {0: 1.0}})
        with pytest.raises(ValueError, match="heterogeneous"):
            opt_prune(table, Cluster((10.0, 20.0)))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_optprune_equals_exhaustive_property(data):
    """Property: OptPrune's score equals full enumeration on random instances."""
    n_ops = data.draw(st.integers(3, 5), label="n_ops")
    n_plans = data.draw(st.integers(1, 3), label="n_plans")
    n_nodes = data.draw(st.integers(1, 3), label="n_nodes")
    capacity = data.draw(st.floats(30.0, 120.0), label="capacity")

    orders = [tuple(range(n_ops))]
    if n_plans >= 2:
        orders.append(tuple(reversed(range(n_ops))))
    if n_plans >= 3:
        orders.append(tuple(range(1, n_ops)) + (0,))

    loads_by_plan = {}
    for order in orders:
        loads_by_plan[order] = {
            op: data.draw(st.floats(1.0, 50.0), label=f"load{order}{op}")
            for op in range(n_ops)
        }
    table = _table(loads_by_plan)
    cluster = Cluster.homogeneous(n_nodes, capacity)
    optimal = exhaustive_physical(table, cluster)
    pruned = opt_prune(table, cluster)
    assert pruned.score == pytest.approx(optimal.score, abs=1e-9)
