"""Reference oracle for :class:`~repro.query.optimizer.DPOptimizer`.

The Held–Karp search as it stood before the move table: every call
rebuilds the subset products, builds each mask's placed list, asks
``JoinGraph.allows_after`` at every extension and compares candidates
through ``_prefer``.  Tests compare the optimizer's *plan* with this
one's (not merely its cost), so a change in any tie, float or
visiting order shows as a different plan.
"""

from __future__ import annotations

from typing import Mapping

from repro.query import LogicalPlan, PlanCostModel, Query
from repro.query.optimizer import _prefer


def best_plan(query: Query, point: Mapping[str, float]) -> LogicalPlan:
    """Cheapest valid plan at ``point`` by the original subset DP.

    Raises ``ValueError`` when the join graph admits no complete
    ordering.
    """
    _, sels_by_slot = PlanCostModel(query).resolve(point)
    ops = sorted(zip(query.operators, sels_by_slot), key=lambda pair: pair[0].op_id)
    ids = [op.op_id for op, _ in ops]
    sels = [sel for _, sel in ops]
    costs = [op.cost_per_tuple for op, _ in ops]
    n = len(ids)
    graph = query.join_graph

    # Subset selectivity products, built incrementally.
    product = [1.0] * (1 << n)
    for mask in range(1, 1 << n):
        low_bit = mask & -mask
        j = low_bit.bit_length() - 1
        product[mask] = product[mask ^ low_bit] * sels[j]

    dp: list[tuple[float, tuple[int, ...]] | None] = [None] * (1 << n)
    dp[0] = (0.0, ())
    for mask in range(1 << n):
        state = dp[mask]
        if state is None:
            continue
        base_cost, base_order = state
        placed = [ids[j] for j in range(n) if mask >> j & 1]
        for j in range(n):
            if mask >> j & 1:
                continue
            if placed and not graph.allows_after(ids[j], placed):
                continue
            new_mask = mask | (1 << j)
            candidate = (
                base_cost + costs[j] * product[mask],
                base_order + (ids[j],),
            )
            if _prefer(candidate, dp[new_mask]):
                dp[new_mask] = candidate

    final = dp[(1 << n) - 1]
    if final is None:
        raise ValueError(
            f"query {query.name!r} has no valid complete ordering "
            "(disconnected join graph?)"
        )
    return LogicalPlan(final[1])
