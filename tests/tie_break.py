"""The ``(key…, plan.order)`` tie-break the test oracles share.

The library labels grid points with a rank-ordered ``np.argmin`` inside
its fused robustness pass; the oracles keep this independent,
multi-key form so they do not reuse the code they check.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.query.plans import LogicalPlan


def lexicographic_argmin(keys: Sequence[np.ndarray], ranks: np.ndarray) -> np.ndarray:
    """Columnwise argmin over stacked ``(n_candidates, n_points)`` keys.

    For each point (column), returns the candidate row minimizing the
    tuple ``(keys[0][p], keys[1][p], ..., ranks[p])`` — exactly the
    semantics of Python's ``min(..., key=lambda p: (k0, k1, ..., rank))``
    applied per column.  ``ranks`` is the final integer tie-break (e.g.
    each plan's position in ``sorted(plans, key=plan.order)``), so the
    result is deterministic even under exact float cost ties.
    """
    if not keys:
        raise ValueError("lexicographic_argmin needs at least one key array")
    first = np.asarray(keys[0])
    n_candidates, n_points = first.shape
    cols = np.arange(n_points)
    best = np.zeros(n_points, dtype=np.intp)
    for p in range(1, n_candidates):
        tied = np.ones(n_points, dtype=bool)
        better = np.zeros(n_points, dtype=bool)
        for key in keys:
            key = np.asarray(key)
            candidate = key[p]
            incumbent = key[best, cols]
            better |= tied & (candidate < incumbent)
            tied &= candidate == incumbent
        better |= tied & (ranks[p] < ranks[best])
        best = np.where(better, p, best)
    return best


def order_ranks(plans: Sequence[LogicalPlan]) -> np.ndarray:
    """Rank of each plan under the lexicographic order of its operators:
    the final :func:`lexicographic_argmin` key."""
    ordered = sorted(range(len(plans)), key=lambda i: plans[i].order)
    ranks = np.empty(len(plans), dtype=np.intp)
    for rank, plan_index in enumerate(ordered):
        ranks[plan_index] = rank
    return ranks
