"""Tests for logical plans and plan enumeration."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.query import JoinGraph, LogicalPlan, Operator, Query, enumerate_plans, is_valid_order
from repro.query.plans import count_valid_orders


def _chain_query(n: int) -> Query:
    ops = tuple(Operator(i, f"op{i}", 1.0, 0.5) for i in range(n))
    return Query(f"chain{n}", ops, join_graph=JoinGraph.chain(range(n)))


class TestLogicalPlan:
    def test_label(self):
        assert LogicalPlan((2, 0, 1)).label == "op2->op0->op1"

    def test_position_and_prefix(self):
        plan = LogicalPlan((2, 0, 1))
        assert plan.position(0) == 1
        assert plan.order[: plan.position(1)] == (2, 0)
        with pytest.raises(KeyError):
            plan.position(9)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            LogicalPlan((0, 0, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            LogicalPlan(())

    def test_value_semantics(self):
        assert LogicalPlan((0, 1)) == LogicalPlan((0, 1))
        assert hash(LogicalPlan((0, 1))) == hash(LogicalPlan((0, 1)))
        assert LogicalPlan((0, 1)) < LogicalPlan((1, 0))

    def test_iteration(self):
        assert list(LogicalPlan((2, 1, 0))) == [2, 1, 0]


class TestValidity:
    def test_unconstrained_accepts_all_permutations(self, three_op_query):
        assert is_valid_order(three_op_query, (2, 0, 1))
        assert is_valid_order(three_op_query, (0, 1, 2))

    def test_non_permutations_rejected(self, three_op_query):
        assert not is_valid_order(three_op_query, (0, 1))
        assert not is_valid_order(three_op_query, (0, 1, 1))
        assert not is_valid_order(three_op_query, (0, 1, 5))

    def test_chain_validity(self):
        q = _chain_query(4)
        assert is_valid_order(q, (1, 2, 0, 3))
        assert is_valid_order(q, (0, 1, 2, 3))
        assert not is_valid_order(q, (0, 2, 1, 3))  # 2 not adjacent to {0}


class TestEnumeration:
    def test_unconstrained_counts_factorial(self, three_op_query):
        plans = list(enumerate_plans(three_op_query))
        assert len(plans) == math.factorial(3)
        assert len(set(plans)) == len(plans)

    def test_limit(self, three_op_query):
        assert len(list(enumerate_plans(three_op_query, limit=4))) == 4

    def test_lexicographic_order(self, three_op_query):
        plans = list(enumerate_plans(three_op_query))
        assert plans == sorted(plans)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_chain_counts(self, n):
        # A chain of n operators admits 2^(n-1) connected orderings.
        q = _chain_query(n)
        assert count_valid_orders(q) == 2 ** (n - 1)

    def test_all_enumerated_chain_plans_valid(self):
        q = _chain_query(5)
        for plan in enumerate_plans(q):
            assert is_valid_order(q, plan.order)

    def test_constrained_limit(self):
        q = _chain_query(6)
        assert len(list(enumerate_plans(q, limit=3))) == 3

    @given(st.integers(min_value=1, max_value=6))
    def test_enumeration_unique_and_complete(self, n):
        ops = tuple(Operator(i, f"op{i}", 1.0, 0.5) for i in range(n))
        q = Query("anon", ops)
        plans = list(enumerate_plans(q))
        assert len(plans) == math.factorial(n)
        assert len(set(plans)) == len(plans)
