"""Black-box plan-at-a-point optimizers with call accounting.

The RLD optimizer treats "the standard query optimizer of a DSPS as a
black box" (§3): given a statistics point it returns the cheapest
logical plan at that point.  Optimizer calls are the paper's unit of
compile-time expense — Figures 10–12 plot *numbers of optimizer calls* —
so every implementation here counts its :meth:`~PointOptimizer.optimize`
invocations.

Three implementations cover the price/fidelity spectrum:

* :class:`RankOrderOptimizer` — O(n log n) rank ordering, optimal for
  unconstrained pipelines of independent operators.
* :class:`DPOptimizer` — Held–Karp dynamic program over operator
  subsets, O(2^n·n), optimal for *any* join graph (the subset product of
  selectivities is order-independent, so subset DP is exact).
* :class:`ExhaustiveOrderOptimizer` — brute force over all valid
  orderings; the ground-truth oracle for the test suite.

All three break cost ties toward the lexicographically smallest
ordering, so the identity of "the optimal plan at pnt" is deterministic
— a requirement for counting distinct robust plans reproducibly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

from repro.query.cost import PlanCostModel
from repro.query.model import Query
from repro.query.plans import LogicalPlan, enumerate_plans

__all__ = [
    "PointOptimizer",
    "RankOrderOptimizer",
    "DPOptimizer",
    "ExhaustiveOrderOptimizer",
    "make_optimizer",
]

#: Relative tolerance under which two plan costs count as tied.
_COST_TIE_RTOL = 1e-12


class PointOptimizer(ABC):
    """Return the optimal logical plan at a statistics point.

    Subclasses implement :meth:`_find_best`; this base class provides
    call counting and cost evaluation.
    """

    def __init__(self, query: Query) -> None:
        self._query = query
        self._cost_model = PlanCostModel(query)
        self._call_count = 0

    @property
    def query(self) -> Query:
        """The query being optimized."""
        return self._query

    @property
    def cost_model(self) -> PlanCostModel:
        """The cost model shared by this optimizer."""
        return self._cost_model

    @property
    def call_count(self) -> int:
        """Number of :meth:`optimize` invocations since the last reset."""
        return self._call_count

    def reset_calls(self) -> None:
        """Zero the optimizer-call counter (start of a new experiment)."""
        self._call_count = 0

    def plan_cost(self, plan: LogicalPlan, point: Mapping[str, float]) -> float:
        """Cost of ``plan`` at ``point`` — not counted as an optimizer call."""
        return self._cost_model.plan_cost(plan, point)

    def peek(self, point: Mapping[str, float]) -> LogicalPlan:
        """Cheapest plan at ``point`` *without* charging an optimizer call.

        For wrappers that time or instrument another optimizer's search
        while counting calls themselves (``perfbench``'s
        ``TimedOptimizer``).
        """
        return self._find_best(point)

    def optimize(self, point: Mapping[str, float]) -> LogicalPlan:
        """Cheapest plan at ``point`` (counted as one optimizer call)."""
        self._call_count += 1
        return self._find_best(point)

    @abstractmethod
    def _find_best(self, point: Mapping[str, float]) -> LogicalPlan:
        """Search for the cheapest valid plan at ``point``."""


def _prefer(candidate: tuple[float, tuple[int, ...]],
            incumbent: tuple[float, tuple[int, ...]] | None) -> bool:
    """True when ``candidate`` (cost, order) beats ``incumbent``.

    Strictly cheaper wins; within relative tolerance the lexicographically
    smaller ordering wins, giving deterministic plan identity.
    """
    if incumbent is None:
        return True
    cand_cost, cand_order = candidate
    inc_cost, inc_order = incumbent
    scale = max(abs(cand_cost), abs(inc_cost), 1.0)
    if cand_cost < inc_cost - _COST_TIE_RTOL * scale:
        return True
    if cand_cost > inc_cost + _COST_TIE_RTOL * scale:
        return False
    return cand_order < inc_order


class RankOrderOptimizer(PointOptimizer):
    """Rank ordering for unconstrained operator pipelines.

    Sorting operators by rank ``(σ_i − 1) / c_i`` ascending minimises the
    cascaded-selectivity cost for independent commutative operators —
    the textbook result for predicate ordering, valid for σ > 1 (join
    fan-out) as well.  Raises at construction for constrained queries,
    where rank ordering is not applicable.
    """

    def __init__(self, query: Query) -> None:
        if not query.join_graph.is_unconstrained:
            raise ValueError(
                "RankOrderOptimizer requires an unconstrained join graph; "
                "use DPOptimizer for constrained queries"
            )
        super().__init__(query)

    def _find_best(self, point: Mapping[str, float]) -> LogicalPlan:
        _, sels = self._cost_model.resolve(point)
        # Tie-break equal ranks by op id for deterministic identity.
        ranked = sorted(
            ((sel - 1.0) / op.cost_per_tuple, op.op_id)
            for op, sel in zip(self._query.operators, sels)
        )
        return LogicalPlan(tuple(op_id for _, op_id in ranked))


class DPOptimizer(PointOptimizer):
    """Held–Karp subset dynamic program, optimal under any join graph.

    ``dp[mask]`` holds the cheapest (cost, order) processing exactly the
    operator set ``mask``.  Appending operator ``o`` to ``mask`` adds
    ``c_o · λ · Π_{i∈mask} σ_i`` — the subset product is independent of
    order, so the DP is exact.  Complexity O(2^n·n), practical to n≈20.
    """

    def _find_best(self, point: Mapping[str, float]) -> LogicalPlan:
        query = self._query
        _, sels_by_slot = self._cost_model.resolve(point)
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


class ExhaustiveOrderOptimizer(PointOptimizer):
    """Brute force over all valid orderings — the test-suite oracle.

    Factorial complexity; intended for queries of at most ~8 operators.
    """

    def _find_best(self, point: Mapping[str, float]) -> LogicalPlan:
        best: tuple[float, tuple[int, ...]] | None = None
        for plan in enumerate_plans(self._query):
            candidate = (self.plan_cost(plan, point), plan.order)
            if _prefer(candidate, best):
                best = candidate
        assert best is not None  # enumerate_plans yields >= 1 plan
        return LogicalPlan(best[1])


def make_optimizer(query: Query) -> PointOptimizer:
    """Pick the cheapest exact optimizer applicable to ``query``.

    Rank ordering when the join graph is unconstrained, otherwise the
    Held–Karp dynamic program.  Both are exact, so this factory never
    trades optimality for speed.
    """
    if query.join_graph.is_unconstrained:
        return RankOrderOptimizer(query)
    return DPOptimizer(query)
