"""OptPrune: optimal robust physical plans by branch-and-bound (§5.3, Alg. 5).

OptPrune searches the graph of machine *configurations* (single-node
operator sets) depth-first, growing a partial physical plan one
configuration at a time.  Two facts make the search tractable:

* **Lemma 1 monotonicity** — the supported-plan set of a partial plan
  is the bitwise AND of its configurations' support masks, so the score
  never increases as configurations are added.  Any partial plan whose
  score is already ≤ the best-known complete score can be pruned.
* **GreedyPhy as the initial bound** — Algorithm 5 seeds the incumbent
  with GreedyPhy's solution, so most branches die immediately; the
  result equals exhaustive search (Figure 14) at a fraction of the time
  (Figure 13).

Machine symmetry (homogeneous cluster) is broken canonically: each new
configuration must contain the lowest-indexed still-unplaced operator,
so each set partition is generated exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.core.greedy_phy import greedy_phy, largest_load_first
from repro.core.physical import (
    Cluster,
    PhysicalPlan,
    PhysicalPlanResult,
    PlanLoadTable,
)
from repro.util.timing import Stopwatch
from repro.util.types import FloatArray

__all__ = [
    "opt_prune",
    "enumerate_feasible_configs",
]

#: Hard cap on operator count: subset tables are O(2^m) in memory.
_MAX_OPERATORS = 18


def _subset_loads(table: PlanLoadTable) -> tuple[list[int], FloatArray]:
    """Per-plan total loads for every operator subset (bitmask indexed).

    Returns the sorted operator ids and a ``(n_plans, 2^m)`` matrix
    whose entry ``[p, s]`` is plan ``p``'s total worst-case load of
    subset ``s``.  Built by bitwise doubling: after processing bit
    ``j``, every subset of operators ``0..j`` is complete, and setting
    bit ``j`` adds one strided broadcast over the half-filled table
    (sums accumulate in ascending-bit order; the tolerance comparisons
    downstream absorb the last-ulp difference from the old
    lowest-bit-last order).
    """
    ops = list(table.operator_ids)
    if len(ops) > _MAX_OPERATORS:
        raise ValueError(
            f"OptPrune subset tables support at most {_MAX_OPERATORS} "
            f"operators, got {len(ops)}"
        )
    n_plans = table.n_plans
    singles = table.load_matrix  # (n_plans, m), column j = operator ops[j]
    loads = np.zeros((n_plans, 1 << len(ops)))
    for j in range(len(ops)):
        step = 1 << j
        view = loads.reshape(n_plans, -1, 2 * step)
        view[:, :, step:] = view[:, :, :step] + singles[:, j, None, None]
    return ops, loads


def enumerate_feasible_configs(
    table: PlanLoadTable, capacity: float
) -> dict[int, int]:
    """All single-machine configurations supporting ≥ 1 plan.

    Returns ``{operator-subset bitmask: support mask}`` for every
    non-empty subset whose worst-case load under at least one plan fits
    within ``capacity`` (Algorithm 5 line 1).  Subsets that support no
    plan cannot contribute to a positive score and are excluded.
    """
    _, per_plan = _subset_loads(table)
    fits = per_plan <= capacity * (1 + 1e-12)  # (n_plans, 2^m) bool
    fits[:, 0] = False  # the empty configuration is not a candidate
    # Row s holds subset s's support mask as little-endian bytes, plan
    # i at bit i, for any number of plans.
    packed = np.packbits(fits, axis=0, bitorder="little").T.copy()
    return {
        int(s): int.from_bytes(packed[s].tobytes(), "little")
        for s in np.flatnonzero(fits.any(axis=0))
    }


def _subset_to_ops(subset: int, ops: list[int]) -> frozenset[int]:
    """Convert an operator-subset bitmask back to operator ids."""
    return frozenset(ops[i] for i in range(len(ops)) if subset >> i & 1)


def _rebalanced(
    plan: PhysicalPlan, mask: int, table: PlanLoadTable, cluster: Cluster
) -> PhysicalPlan:
    """Best balanced placement that still supports the plans in ``mask``.

    Tries LLF on the typical load profile first (verifying worst-case
    support), then LLF on the worst-case profile (support-preserving by
    construction), and finally keeps the original placement.
    """
    typical = largest_load_first(table.expected_loads(mask), cluster)
    if typical is not None and typical.support_mask(table, cluster) & mask == mask:
        return typical
    conservative = largest_load_first(table.max_loads(mask), cluster)
    if conservative is not None:
        return conservative
    return plan


def opt_prune(
    table: PlanLoadTable, cluster: Cluster, *, rebalance: bool = True
) -> PhysicalPlanResult:
    """OptPrune (Algorithm 5): the optimal robust physical plan.

    Requires a homogeneous cluster (the paper's setting).  Returns the
    physical plan maximizing the total occurrence weight of supported
    logical plans; ties prefer fewer machines, then the canonical-first
    partition.  When not even one logical plan is supportable the
    result is infeasible (``physical_plan=None``), matching GreedyPhy.

    With ``rebalance`` (default), the winning plan set is re-placed by
    LLF over its per-operator max loads when that placement is
    feasible: support is unchanged (every node then fits the worst case
    of every supported plan) but the load is spread evenly, which
    matters for runtime queueing.  Score and supported plans — the
    quantities Figures 13–14 compare — are identical either way.
    """
    watch = Stopwatch()
    capacity = cluster.uniform_capacity
    n_nodes = cluster.n_nodes
    ops = list(table.operator_ids)
    all_ops_mask = (1 << len(ops)) - 1

    configs = enumerate_feasible_configs(table, capacity)
    greedy = greedy_phy(table, cluster)
    best_score = greedy.score
    best_assignment: list[int] | None = None
    best_mask = table.mask_of(greedy.supported_plans) if greedy.feasible else 0
    full_score = table.score(table.full_mask)
    nodes_explored = 0

    # Per "first operator" candidate lists, largest configurations first
    # (Algorithm 5 sorts configurations by operator count descending).
    by_first: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(ops))}
    for subset, mask in configs.items():
        first = (subset & -subset).bit_length() - 1
        by_first[first].append((subset, mask))
    for candidates in by_first.values():
        candidates.sort(key=lambda item: (-bin(item[0]).count("1"), item[0]))

    def search(remaining: int, used: int, mask: int, chosen: list[int]) -> bool:
        """DFS over canonical partitions; True aborts (perfect score)."""
        nonlocal best_score, best_assignment, best_mask, nodes_explored
        first = (remaining & -remaining).bit_length() - 1
        for subset, config_mask in by_first[first]:
            if subset & ~remaining:
                continue  # overlaps an already-placed operator
            new_mask = mask & config_mask
            if new_mask == 0:
                continue
            new_score = table.score(new_mask)
            if new_score <= best_score:
                continue  # Lemma 1: the score only shrinks deeper down
            nodes_explored += 1
            new_remaining = remaining & ~subset
            chosen.append(subset)
            if new_remaining == 0:
                if new_score > best_score or best_assignment is None:
                    best_score = new_score
                    best_assignment = list(chosen)
                    best_mask = new_mask
                    if best_score >= full_score * (1 - 1e-12):
                        chosen.pop()
                        return True  # supports every plan: cannot improve
            elif used + 1 < n_nodes:
                if search(new_remaining, used + 1, new_mask, chosen):
                    chosen.pop()
                    return True
            chosen.pop()
        return False

    if configs:
        search(all_ops_mask, 0, table.full_mask, [])

    elapsed = watch.seconds
    if best_assignment is None:
        # OptPrune found nothing better than greedy; fall back to greedy
        # (which may itself be infeasible).
        return PhysicalPlanResult(
            algorithm="OptPrune",
            physical_plan=greedy.physical_plan,
            supported_plans=greedy.supported_plans,
            score=greedy.score,
            compile_seconds=elapsed,
            nodes_explored=nodes_explored,
        )

    blocks = [_subset_to_ops(subset, ops) for subset in best_assignment]
    blocks += [frozenset()] * (n_nodes - len(blocks))
    plan = PhysicalPlan(tuple(blocks))
    if rebalance:
        # Prefer balance on the *typical* load profile, accepted only if
        # the worst-case support of the result still covers the winning
        # plan set; otherwise balance on worst-case loads (feasibility
        # there implies support by construction).
        plan = _rebalanced(plan, best_mask, table, cluster)
        best_mask = plan.support_mask(table, cluster)
        best_score = table.score(best_mask)
    return PhysicalPlanResult(
        algorithm="OptPrune",
        physical_plan=plan,
        supported_plans=table.plans_in_mask(best_mask),
        score=best_score,
        compile_seconds=elapsed,
        nodes_explored=nodes_explored,
    )
