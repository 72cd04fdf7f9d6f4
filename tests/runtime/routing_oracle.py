"""Reference oracle for RLD routing: the classifier decision at every
grid point at once, vectorized over every grid point's values.

This is an independent implementation of :class:`RLDStrategy`'s three
branches — the cost argmin, the dead-bottleneck fallback and the
overload (min-bottleneck) mode — built on the batch cost kernels.  All
argmins share the ``(…, plan.order)`` tie-break through
:func:`lexicographic_argmin`.  Tests compare ``route()`` against it.
"""

from __future__ import annotations

import numpy as np
from tie_break import lexicographic_argmin, order_ranks

from repro.core.rld import RLDSolution


def oracle_decisions(
    solution: RLDSolution,
    down: frozenset[int] = frozenset(),
    overload_threshold: float = 0.95,
) -> np.ndarray:
    """Index into ``solution.supported_plans`` per flat grid point."""
    plans = solution.supported_plans
    model = solution.logical.cost_model
    space = solution.space
    names = list(space.names)
    n_points = space.n_points
    matrix = space.points_matrix(np.arange(n_points))
    n_plans = len(plans)
    placement = solution.physical.physical_plan
    capacities = np.asarray(solution.cluster.capacities, dtype=float)
    is_down = np.zeros(len(capacities), dtype=bool)
    for node in down:
        is_down[node] = True
    ranks = order_ranks(plans)

    costs = np.empty((n_plans, n_points))
    butil = np.empty((n_plans, n_points))
    bneck = np.empty((n_plans, n_points), dtype=np.intp)
    down_load = np.zeros((n_plans, n_points))
    for p, plan in enumerate(plans):
        costs[p] = model.plan_costs(plan, matrix, names)
        loads = model.operator_loads_batch(plan, matrix, names)
        node_loads = np.zeros((len(capacities), n_points))
        for op_id, load in loads.items():
            node_loads[placement.node_of(op_id)] += load
        utils = node_loads / capacities[:, None]
        bneck[p] = np.argmax(utils, axis=0)  # first max = smallest node
        butil[p] = utils.max(axis=0)
        for op_id, load in loads.items():
            if placement.node_of(op_id) in down:
                down_load[p] += load

    choice = lexicographic_argmin([costs], ranks)
    if n_plans == 1:
        return choice
    cols = np.arange(n_points)
    pref_util = butil[choice, cols]
    plan_bneck_down = is_down[bneck]  # (n_plans, n_points)
    pref_down = plan_bneck_down[choice, cols]
    survive = ~plan_bneck_down
    has_survivor = survive.any(axis=0)
    # Non-surviving plans leave the candidate pool (∞ key) except where
    # *every* plan bottlenecks on a dead node.
    dl_key = np.where(has_survivor[None, :] & ~survive, np.inf, down_load)
    degraded = lexicographic_argmin([dl_key, costs], ranks)
    overloaded = ~pref_down & (pref_util >= overload_threshold)
    choice = np.where(pref_down, degraded, choice)
    by_bottleneck = lexicographic_argmin([butil, costs], ranks)
    return np.where(overloaded, by_bottleneck, choice)
