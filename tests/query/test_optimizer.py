"""Tests for the plan-at-a-point optimizers (rank, DP, exhaustive)."""

from __future__ import annotations

import math
import re

import dp_oracle
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
    rate_param,
)
from repro.query.optimizer import _COST_TIE_RTOL, _prefer
from repro.workloads import build_nway


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


class TestDPMoveTable:
    def test_rejects_more_than_twenty_operators_at_construction(self):
        q = _query([1.0] * 21, [0.5] * 21, JoinGraph.chain(range(21)))
        with pytest.raises(ValueError, match="at most 20 operators"):
            DPOptimizer(q)

    def test_table_built_once_on_first_search(self, monkeypatch):
        q = _query([3.0, 1.0, 2.0, 0.5], [0.5, 0.9, 0.3, 0.7], JoinGraph.star(1, [0, 2, 3]))
        calls = []
        original = JoinGraph.allows_after

        def counted(self, op_id, placed):
            calls.append(op_id)
            return original(self, op_id, placed)

        monkeypatch.setattr(JoinGraph, "allows_after", counted)
        optimizer = DPOptimizer(q)
        assert calls == []
        optimizer.optimize(q.estimate_point())
        built = len(calls)
        assert built > 0
        optimizer.optimize(StatPoint({"sel:1": 0.2}))
        assert len(calls) == built


def _dp_cost(costs, sels, order):
    """Unit-rate cost of ``order`` (op ids 0..n-1) summed as the DP forms
    it: one step per operator, each subset product multiplied from the
    highest position down."""
    total, mask = 0.0, 0
    for op_id in order:
        product = 1.0
        for j in reversed(range(len(sels))):
            if mask >> j & 1:
                product *= sels[j]
        total = total + costs[op_id] * product
        mask |= 1 << op_id
    return total


def _flip_near(prefers, guess):
    """Adjacent floats about ``guess`` between which ``prefers`` changes."""
    up = down = guess
    for _ in range(10_000):
        above, below = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        if prefers(above) != prefers(up):
            return up, above
        if prefers(below) != prefers(down):
            return below, down
        up, down = above, below
    raise AssertionError(f"no flip near {guess!r}")


#: Queries whose last comparison has a later candidate ``cand`` against
#: the incumbent ``inc``; σ1 is varied to put it on an edge of the tie
#: window.  With two operators the incumbent (0, 1) is the smaller order,
#: so only the low edge (candidate cheaper by the tolerance) shows; on
#: the chain 2–0–3–1 the full mask is reached only from {0, 1, 3}, then
#: {0, 2, 3}, so the smaller (0, 2, 3, 1) arrives second and the high edge
#: (candidate dearer by the tolerance) shows.  Negative selectivities make
#: costs negative (the ``abs`` in the window's scale); costs under 1 reach
#: its floor of 1.
_TIE_EDGES = {
    "pair at 2": ([1.0, 1.0], [1.0, 1.0], None, (1, 0), (0, 1), -1),
    "pair at -2": ([1.0, 1.0], [-3.0, -3.0], None, (1, 0), (0, 1), -1),
    "pair at 0.5": ([1.0, 1.0], [-0.5, -0.5], None, (1, 0), (0, 1), -1),
    "chain": (
        [0.84, 1.85, 2.0, 1.37], [0.44, 0.9, 0.96, 1.03], [2, 0, 3, 1],
        (0, 2, 3, 1), (0, 3, 1, 2), 1,
    ),
    "chain under 1": (
        [0.21, 0.4625, 0.5, 0.3425], [0.44, 0.9, 0.96, 1.03], [2, 0, 3, 1],
        (0, 2, 3, 1), (0, 3, 1, 2), 1,
    ),
    "chain negative": (
        [1.74, 1.38, 0.61, 1.05], [-1.77, 1.48, 1.03, 0.76], [2, 0, 3, 1],
        (0, 2, 3, 1), (0, 3, 1, 2), 1,
    ),
}


@pytest.mark.parametrize("case", list(_TIE_EDGES))
def test_inlined_tie_rule_matches_prefer_at_the_tolerance(case):
    """The relaxation decides like ``_prefer`` at, and one float either
    side of, the σ1 where the last comparison crosses an edge of the
    tie window."""
    costs, sels, chain, cand, inc, side = _TIE_EDGES[case]
    q = _query(costs, [abs(sel) for sel in sels], chain and JoinGraph.chain(chain))

    def at(sel1):
        return [sels[0], sel1, *sels[2:]]

    def prefers(sel1):
        return _prefer((_dp_cost(costs, at(sel1), cand), cand),
                       (_dp_cost(costs, at(sel1), inc), inc))

    def off_edge(sel1):
        c, i = _dp_cost(costs, at(sel1), cand), _dp_cost(costs, at(sel1), inc)
        return c - i - side * _COST_TIE_RTOL * max(abs(c), abs(i), 1.0)

    # Two secant steps from σ1 land within a few floats of the edge.
    x0, x1 = sels[1], sels[1] * (1 + 1e-6)
    for _ in range(2):
        x0, x1 = x1, x1 - off_edge(x1) * (x1 - x0) / (off_edge(x1) - off_edge(x0))
    below, above = _flip_near(prefers, x1)
    optimizer = DPOptimizer(q)
    kept = []
    for sel1 in (sels[1], math.nextafter(below, -math.inf), below, above,
                 math.nextafter(above, math.inf)):
        point = StatPoint({f"sel:{j}": sel for j, sel in enumerate(at(sel1))})
        expected = cand if prefers(sel1) else inc
        assert optimizer.optimize(point).order == expected
        kept.append(expected)
    assert set(kept) == {cand, inc}


@st.composite
def _dp_cases(draw):
    """A query of 1–8 operators under some join graph, and a point.

    Op ids are sparse and operators are listed out of id order.
    Operators share (cost, selectivity) kinds, so duplicated operators
    tie exactly; on a "tied" point the duplicates keep sharing their
    selectivity.
    """
    n = draw(st.integers(1, 8), label="n")
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    n_kinds = draw(st.integers(1, n), label="kinds")
    kind = draw(st.lists(st.integers(0, n_kinds - 1), min_size=n, max_size=n))
    costs = draw(st.lists(st.floats(0.1, 5.0), min_size=n_kinds, max_size=n_kinds))
    sels = draw(st.lists(st.floats(0.05, 2.0), min_size=n_kinds, max_size=n_kinds))
    ops = tuple(
        Operator(op_id, f"op{op_id}", costs[kind[i]], sels[kind[i]])
        for i, op_id in enumerate(ids)
    )

    shape = draw(
        st.sampled_from(["none", "chain", "star", "connected", "disconnected", "random"]),
        label="graph",
    )
    order = draw(st.permutations(ids))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges: list[tuple[int, int]] = []
    if shape == "chain":
        edges = list(zip(order, order[1:]))
    elif shape == "star":
        edges = [(order[0], leaf) for leaf in order[1:]]
    elif shape == "connected":
        for i in range(1, n):
            edges.append((order[draw(st.integers(0, i - 1))], order[i]))
        if n > 1:
            edges += [(order[a], order[b]) for a, b in draw(st.lists(pair, max_size=n))]
    elif shape == "disconnected" and n > 1:
        cut = draw(st.integers(1, n - 1))
        for part in (order[:cut], order[cut:]):
            edges += list(zip(part, part[1:]))
    elif shape == "random" and n > 1:
        edges = [(order[a], order[b]) for a, b in draw(st.lists(pair, max_size=2 * n))]
    query = Query(
        "t", ops, (StreamSchema("S", base_rate=100.0),), join_graph=JoinGraph(edges)
    )

    how = draw(st.sampled_from(["estimate", "tied", "random"]), label="point")
    if how == "estimate":
        return query, query.estimate_point()
    if how == "tied":
        at = draw(st.lists(st.floats(0.05, 2.0), min_size=n_kinds, max_size=n_kinds))
        return query, StatPoint(
            {op.selectivity_param: at[kind[i]] for i, op in enumerate(ops)}
        )
    at = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    rate = draw(st.floats(1.0, 500.0))
    values = {op.selectivity_param: at[i] for i, op in enumerate(ops)}
    values[rate_param()] = rate
    return query, StatPoint(values)


@settings(max_examples=300, deadline=None)
@given(case=_dp_cases())
def test_dp_returns_the_oracle_plan(case):
    """Differential property: the move-table DP returns the original
    Held–Karp's plan (not merely its cost), or raises its error."""
    query, point = case
    optimizer = DPOptimizer(query)
    try:
        expected = dp_oracle.best_plan(query, point)
    except ValueError as error:
        with pytest.raises(ValueError, match=re.escape(str(error))):
            optimizer.optimize(point)
        return
    assert optimizer.optimize(point) == expected
    # The kept move table serves a second point too.
    assert optimizer.optimize(query.estimate_point()) == dp_oracle.best_plan(
        query, query.estimate_point()
    )


def test_dp_returns_the_oracle_plan_on_the_join12_space():
    """25 grid points of the 12-way join space the join benchmark compiles
    (four selectivities at uncertainty level 3), one optimizer for all."""
    from repro.core import ParameterSpace

    query = build_nway(12, seed=13)
    estimate = query.default_estimates(
        {op.selectivity_param: 3 for op in query.operators[:4]}
    )
    space = ParameterSpace.from_estimates(estimate, points_per_level=2)
    optimizer = DPOptimizer(query)
    plans = set()
    for k in range(25):
        point = space.point_at(space.index_of_flat(k * (space.n_points - 1) // 24))
        plan = optimizer.optimize(point)
        assert plan == dp_oracle.best_plan(query, point)
        plans.add(plan)
    assert len(plans) > 1


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
