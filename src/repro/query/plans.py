"""Logical plans (operator orderings) and plan enumeration.

A logical plan ``lp`` is an ordering of all the query's operators —
``op3 → op2 → op1`` in the paper's Example 1.  Plans are value objects:
two plans with the same ordering are equal and hash equal, which is how
the partitioning algorithms count *distinct* robust plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator

from repro.query.model import Query

__all__ = ["LogicalPlan", "is_valid_order", "enumerate_plans", "count_valid_orders"]


@dataclass(frozen=True, order=True)
class LogicalPlan:
    """An operator ordering for a query.

    ``order`` lists operator ids from first-applied to last-applied.
    The dataclass ordering (lexicographic on ``order``) gives searches a
    deterministic tie-break so repeated runs find identical plan sets.
    """

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise ValueError(f"plan ordering contains duplicates: {self.order}")
        if not self.order:
            raise ValueError("plan ordering must not be empty")

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)

    @property
    def label(self) -> str:
        """Readable arrow form, e.g. ``"op3->op2->op1"``."""
        return "->".join(f"op{i}" for i in self.order)

    def position(self, op_id: int) -> int:
        """0-based position of ``op_id`` in this plan; raises if absent."""
        try:
            return self.order.index(op_id)
        except ValueError:
            raise KeyError(f"operator {op_id} not in plan {self.label}") from None


def is_valid_order(query: Query, order: Iterable[int]) -> bool:
    """True if ``order`` is a complete, join-graph-valid ordering.

    Validity requires (a) the ordering is a permutation of the query's
    operator ids and (b) every operator after the first is adjacent in
    the join graph to some earlier operator (always true when the join
    graph is unconstrained).
    """
    order = tuple(order)
    if sorted(order) != sorted(query.operator_ids):
        return False
    placed: list[int] = []
    for op_id in order:
        if placed and not query.join_graph.allows_after(op_id, placed):
            return False
        placed.append(op_id)
    return True


def enumerate_plans(query: Query, limit: int | None = None) -> Iterator[LogicalPlan]:
    """Yield valid logical plans for ``query`` in lexicographic order.

    Enumeration is a backtracking walk honoring the join graph, so for
    constrained queries it never materialises invalid permutations.  An
    optional ``limit`` caps the number of yielded plans (useful in tests
    against queries with huge plan spaces).
    """
    ids = sorted(query.operator_ids)
    graph = query.join_graph
    yielded = 0

    if graph.is_unconstrained:
        for perm in permutations(ids):
            yield LogicalPlan(perm)
            yielded += 1
            if limit is not None and yielded >= limit:
                return
        return

    prefix: list[int] = []
    remaining = set(ids)

    def extend() -> Iterator[LogicalPlan]:
        nonlocal yielded
        if limit is not None and yielded >= limit:
            return
        if not remaining:
            yielded += 1
            yield LogicalPlan(tuple(prefix))
            return
        for op_id in sorted(remaining):
            if prefix and not graph.allows_after(op_id, prefix):
                continue
            prefix.append(op_id)
            remaining.remove(op_id)
            yield from extend()
            prefix.pop()
            remaining.add(op_id)

    yield from extend()


def count_valid_orders(query: Query, cap: int = 1_000_000) -> int:
    """Count valid orderings, stopping at ``cap`` to bound work."""
    count = 0
    for _ in enumerate_plans(query, limit=cap):
        count += 1
    return count
