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

#: Most operators :class:`DPOptimizer` accepts: its per-call tables hold
#: 2^n entries, so n = 20 already means lists of a million entries.
MAX_DP_OPERATORS = 20


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

    The search keeps, per subset mask, the cheapest (cost, order)
    processing exactly that operator set.  Appending operator ``o`` to
    ``mask`` adds ``c_o · Π_{i∈mask} σ_i`` — the subset product is
    independent of order, so the DP is exact.  Costs are at unit rate:
    the driving rate λ multiplies every candidate alike, so it is left
    out and cannot reorder them; only the absolute floor of the 1e-12
    tie window would see its scale.

    Which operators may extend a subset depends on the join graph, not
    on the point.  The first search builds a *move table* and keeps it:
    for every mask, the positions (operators in op-id order) that
    ``JoinGraph.allows_after`` lets follow it, empty for a mask no valid
    ordering reaches.  That is 2^n tuples of small ints, O(2^n·n)
    memory.  Each call then builds the 2^n subset products and relaxes
    costs over the table, masks ascending and positions ascending, with
    ``_prefer``'s tie rule inlined; it makes an order tuple only for a
    candidate that wins or ties.  O(2^n·n) time per call; construction
    rejects more than :data:`MAX_DP_OPERATORS` operators.
    """

    def __init__(self, query: Query) -> None:
        n = len(query.operators)
        if n > MAX_DP_OPERATORS:
            raise ValueError(
                f"DPOptimizer handles at most {MAX_DP_OPERATORS} operators "
                f"(its tables hold 2^n entries), got {n}"
            )
        super().__init__(query)
        slots = sorted(range(n), key=lambda slot: query.operators[slot].op_id)
        self._slots = slots
        self._ids = [query.operators[slot].op_id for slot in slots]
        self._costs = [query.operators[slot].cost_per_tuple for slot in slots]
        self._move_table: list[tuple[int, ...]] | None = None

    def _moves(self) -> list[tuple[int, ...]]:
        """Per subset mask, the positions that may extend it (built once)."""
        if self._move_table is None:
            ids = self._ids
            allows_after = self._query.join_graph.allows_after
            positions = range(len(ids))
            reached = [False] * (1 << len(ids))
            reached[0] = True
            table: list[tuple[int, ...]] = []
            for mask in range(len(reached)):
                if not reached[mask]:
                    table.append(())
                    continue
                placed = [ids[j] for j in positions if mask >> j & 1]
                moves = tuple([
                    j for j in positions
                    if not mask >> j & 1 and allows_after(ids[j], placed)
                ])
                for j in moves:
                    reached[mask | 1 << j] = True
                table.append(moves)
            self._move_table = table
        return self._move_table

    def _find_best(self, point: Mapping[str, float]) -> LogicalPlan:
        table = self._moves()
        _, sels_by_slot = self._cost_model.resolve(point)
        ids = self._ids
        costs = self._costs
        size = len(table)

        # Subset selectivity products: product[mask] is
        # product[mask without its lowest bit j] * σ_j, filled one
        # lowest-bit stride at a time from the highest position down.
        product = [1.0] * size
        for j in reversed(range(len(ids))):
            sel = sels_by_slot[self._slots[j]]
            step = 2 << j
            product[1 << j::step] = [rest * sel for rest in product[::step]]

        # best_order[m] is meaningful once best_cost[m] is set.
        best_cost: list[float | None] = [None] * size
        best_order: list[tuple[int, ...]] = [()] * size
        best_cost[0] = 0.0
        rtol = _COST_TIE_RTOL
        for mask, moves in enumerate(table):
            if not moves:
                continue
            base_cost = best_cost[mask]
            assert base_cost is not None  # a mask with moves is reached
            base_order = best_order[mask]
            subset_product = product[mask]
            for j in moves:
                new_mask = mask | 1 << j
                cost = base_cost + costs[j] * subset_product
                inc_cost = best_cost[new_mask]
                if inc_cost is not None:
                    # _prefer inlined: strictly cheaper wins, dearer loses,
                    # a tie within the relative tolerance goes to the
                    # smaller order.  Its scale max(|cost|, |inc_cost|, 1)
                    # is max(larger, 1) when both costs are non-negative,
                    # the common case, so the first two branches skip
                    # the abs and max calls.
                    if cost > inc_cost >= 0.0:
                        if cost > inc_cost + rtol * (cost if cost > 1.0 else 1.0):
                            continue
                    elif inc_cost >= cost >= 0.0:
                        if cost < inc_cost - rtol * (inc_cost if inc_cost > 1.0 else 1.0):
                            best_cost[new_mask] = cost
                            best_order[new_mask] = base_order + (ids[j],)
                            continue
                    else:
                        tol = rtol * max(abs(cost), abs(inc_cost), 1.0)
                        if cost > inc_cost + tol:
                            continue
                        if cost < inc_cost - tol:
                            best_cost[new_mask] = cost
                            best_order[new_mask] = base_order + (ids[j],)
                            continue
                    order = base_order + (ids[j],)
                    if order < best_order[new_mask]:
                        best_cost[new_mask] = cost
                        best_order[new_mask] = order
                    continue
                best_cost[new_mask] = cost
                best_order[new_mask] = base_order + (ids[j],)

        if best_cost[-1] is None:
            raise ValueError(
                f"query {self._query.name!r} has no valid complete ordering "
                "(disconnected join graph?)"
            )
        return LogicalPlan(best_order[-1])


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
