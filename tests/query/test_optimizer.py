"""Tests for the plan-at-a-point optimizers (rank, DP, exhaustive)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import (
    DPOptimizer,
    ExhaustiveOrderOptimizer,
    JoinGraph,
    Operator,
    Query,
    RankOrderOptimizer,
    StatPoint,
    StreamSchema,
    make_optimizer,
)


def _query(costs, sels, graph=None) -> Query:
    ops = tuple(
        Operator(i, f"op{i}", float(c), float(s))
        for i, (c, s) in enumerate(zip(costs, sels))
    )
    return Query(
        "t", ops, (StreamSchema("S", base_rate=100.0),), join_graph=graph or JoinGraph()
    )


class TestCallAccounting:
    def test_calls_counted_and_resettable(self, three_op_query):
        opt = make_optimizer(three_op_query)
        assert opt.call_count == 0
        opt.optimize(three_op_query.estimate_point())
        opt.optimize(three_op_query.estimate_point())
        assert opt.call_count == 2
        opt.reset_calls()
        assert opt.call_count == 0

    def test_plan_cost_not_counted(self, three_op_query):
        opt = make_optimizer(three_op_query)
        plan = opt.optimize(three_op_query.estimate_point())
        opt.plan_cost(plan, three_op_query.estimate_point())
        assert opt.call_count == 1


class TestRankOrder:
    def test_matches_exhaustive_on_fixture(self, three_op_query):
        point = three_op_query.estimate_point()
        rank = RankOrderOptimizer(three_op_query).optimize(point)
        brute = ExhaustiveOrderOptimizer(three_op_query).optimize(point)
        assert rank == brute

    def test_selective_cheap_operator_goes_first(self):
        q = _query([1.0, 1.0], [0.1, 0.9])
        plan = RankOrderOptimizer(q).optimize(q.estimate_point())
        assert plan.order == (0, 1)

    def test_rejects_constrained_query(self):
        q = _query([1.0, 1.0], [0.5, 0.5], JoinGraph.chain([0, 1]))
        with pytest.raises(ValueError, match="unconstrained"):
            RankOrderOptimizer(q)

    def test_uses_point_selectivities(self):
        q = _query([1.0, 1.0], [0.1, 0.9])
        # Flip the estimates at the probe point: op1 becomes selective.
        plan = RankOrderOptimizer(q).optimize(
            StatPoint({"sel:0": 0.9, "sel:1": 0.1})
        )
        assert plan.order == (1, 0)


class TestDPOptimizer:
    def test_matches_exhaustive_unconstrained(self, four_op_query):
        point = four_op_query.estimate_point()
        assert DPOptimizer(four_op_query).optimize(point) == ExhaustiveOrderOptimizer(
            four_op_query
        ).optimize(point)

    def test_matches_exhaustive_on_chain(self):
        q = _query([3.0, 1.0, 2.0, 0.5], [0.5, 0.9, 0.3, 0.7], JoinGraph.chain(range(4)))
        point = q.estimate_point()
        dp = DPOptimizer(q).optimize(point)
        brute = ExhaustiveOrderOptimizer(q).optimize(point)
        assert DPOptimizer(q).plan_cost(dp, point) == pytest.approx(
            ExhaustiveOrderOptimizer(q).plan_cost(brute, point)
        )
        assert dp == brute

    def test_chain_result_is_valid(self):
        from repro.query import is_valid_order

        q = _query([1.0] * 5, [0.5] * 5, JoinGraph.chain(range(5)))
        plan = DPOptimizer(q).optimize(q.estimate_point())
        assert is_valid_order(q, plan.order)

    def test_disconnected_graph_raises(self):
        # Edge only between 0-1; operator 2 can never connect... except as
        # first element; but then 0/1 cannot follow 2.  No valid order.
        q = _query([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], JoinGraph([(0, 1)]))
        # Operator 2 is isolated: allows_after(2, placed) is False whenever
        # placed is non-empty, and nothing may follow a lone {2} either.
        with pytest.raises(ValueError, match="no valid complete ordering"):
            DPOptimizer(q).optimize(q.estimate_point())


class TestDeterminism:
    def test_tie_break_is_lexicographic(self):
        # Identical operators: every ordering costs the same; the
        # optimizer must return the identity ordering.
        q = _query([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
        for optimizer in (RankOrderOptimizer(q), DPOptimizer(q), ExhaustiveOrderOptimizer(q)):
            assert optimizer.optimize(q.estimate_point()).order == (0, 1, 2)


class TestFactory:
    def test_unconstrained_gets_rank(self, three_op_query):
        assert isinstance(make_optimizer(three_op_query), RankOrderOptimizer)

    def test_constrained_gets_dp(self):
        q = _query([1.0, 1.0], [0.5, 0.5], JoinGraph.chain([0, 1]))
        assert isinstance(make_optimizer(q), DPOptimizer)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_rank_and_dp_match_exhaustive_property(n, data):
    """Property: all three optimizers agree on unconstrained pipelines."""
    costs = [data.draw(st.floats(0.1, 5.0), label=f"c{i}") for i in range(n)]
    sels = [data.draw(st.floats(0.05, 1.5), label=f"s{i}") for i in range(n)]
    q = _query(costs, sels)
    point = q.estimate_point()
    brute = ExhaustiveOrderOptimizer(q)
    best_cost = brute.plan_cost(brute.optimize(point), point)
    for optimizer in (RankOrderOptimizer(q), DPOptimizer(q)):
        plan = optimizer.optimize(point)
        assert optimizer.plan_cost(plan, point) == pytest.approx(best_cost, rel=1e-9)
