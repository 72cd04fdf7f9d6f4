"""Differential tests: OptPrune vs exhaustive ground truth.

On small instances (≤ 3 nodes, ≤ 6 operators) the whole search space is
enumerable, so agreement is checkable exactly: ``opt_prune`` must match
``exhaustive_physical``'s optimal score and supported set (§6.4's
optimality claim — Figure 14), with and without the LLF rebalance,
feasible or not.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import Cluster, PlanLoadTable, exhaustive_physical
from repro.core.optprune import opt_prune
from repro.query import LogicalPlan

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: One strategy draw = (n_ops, n_plans, rng seed); loads and weights
#: come from a seeded generator so examples shrink reproducibly.
_INSTANCES = st.tuples(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def _random_table(n_ops: int, n_plans: int, seed: int) -> PlanLoadTable:
    """A synthetic load table with distinct per-plan load profiles."""
    rng = np.random.default_rng(seed)
    orders = []
    base = tuple(range(n_ops))
    while len(orders) < n_plans:
        order = tuple(rng.permutation(n_ops).tolist())
        if order not in orders:
            orders.append(order)
    plans = [LogicalPlan(order) for order in orders]
    loads = {
        plan: {op: float(rng.uniform(5.0, 60.0)) for op in base}
        for plan in plans
    }
    raw = rng.uniform(0.1, 1.0, size=len(plans))
    weights = {
        plan: float(raw[i] / raw.sum()) for i, plan in enumerate(plans)
    }
    return PlanLoadTable(plans, loads, weights)


class TestHomogeneousDifferential:
    @_SETTINGS
    @given(
        instance=_INSTANCES,
        n_nodes=st.integers(min_value=2, max_value=3),
        tightness=st.sampled_from([0.6, 1.0, 1.6]),
        rebalance=st.booleans(),
    )
    # Nothing fits on either node: both searches must report infeasible.
    @example(instance=(4, 3, 5), n_nodes=2, tightness=0.01, rebalance=True)
    def test_serial_matches_exhaustive(
        self, instance, n_nodes, tightness, rebalance
    ):
        n_ops, n_plans, seed = instance
        table = _random_table(n_ops, n_plans, seed)
        # Capacity scaled around the mean per-node share so instances
        # range from mostly-infeasible to fully-feasible.
        total = float(table.load_matrix.sum(axis=1).max())
        capacity = tightness * total / n_nodes
        cluster = Cluster.homogeneous(n_nodes, capacity)

        result = opt_prune(table, cluster, rebalance=rebalance)
        truth = exhaustive_physical(table, cluster)
        assert result.feasible == truth.feasible
        assert result.score == truth.score
        assert set(result.supported_plans) == set(truth.supported_plans)
