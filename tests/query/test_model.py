"""Tests for streams, operators, join graphs, and queries."""

from __future__ import annotations

import pytest

from repro.query import JoinGraph, Operator, Query, StreamSchema


class TestStreamSchema:
    def test_valid(self):
        s = StreamSchema("Stocks", ("symbol",), base_rate=50.0)
        assert s.name == "Stocks"
        assert s.base_rate == 50.0

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="stream name"):
            StreamSchema("")

    def test_non_positive_rate_rejected(self):
        with pytest.raises(ValueError, match="base_rate"):
            StreamSchema("S", base_rate=0.0)


class TestOperator:
    def test_selectivity_param(self):
        op = Operator(3, "op3", 1.0, 0.5)
        assert op.selectivity_param == "sel:3"

    def test_join_fanout_selectivity_allowed(self):
        op = Operator(0, "join", 1.0, 2.5)
        assert op.selectivity == 2.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"op_id": -1, "name": "x", "cost_per_tuple": 1.0, "selectivity": 0.5},
            {"op_id": 0, "name": "x", "cost_per_tuple": 0.0, "selectivity": 0.5},
            {"op_id": 0, "name": "x", "cost_per_tuple": 1.0, "selectivity": 0.0},
            {"op_id": 0, "name": "x", "cost_per_tuple": 1.0, "selectivity": 0.5, "state_size": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Operator(**kwargs)


class TestJoinGraph:
    def test_unconstrained_allows_anything(self):
        graph = JoinGraph()
        assert graph.is_unconstrained
        assert graph.allows_after(5, [1, 2])

    def test_chain_constrains_order(self):
        graph = JoinGraph.chain([0, 1, 2, 3])
        assert graph.allows_after(1, [0])
        assert not graph.allows_after(3, [0, 1])
        assert graph.allows_after(3, [0, 1, 2])

    def test_star(self):
        graph = JoinGraph.star(0, [1, 2, 3])
        assert graph.allows_after(2, [0])
        assert not graph.allows_after(2, [1, 3])

    def test_first_operator_always_allowed(self):
        graph = JoinGraph.chain([0, 1, 2])
        assert graph.allows_after(2, [])

    def test_operator_outside_the_graph_never_follows(self):
        graph = JoinGraph.chain([0, 1])
        assert graph.allows_after(7, [])
        assert not graph.allows_after(7, [0, 1])

    def test_placed_may_be_any_collection(self):
        graph = JoinGraph.star(0, [1, 2])
        for placed in ([0], (0,), {0}, frozenset({0, 2})):
            assert graph.allows_after(1, placed)
        for placed in ([2], (2,), {2}, frozenset({1, 2})):
            assert not graph.allows_after(1, placed)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            JoinGraph([(1, 1)])

    def test_neighbors(self):
        graph = JoinGraph([(0, 1), (1, 2)])
        assert graph.neighbors(1) == {0, 2}
        assert graph.neighbors(9) == frozenset()


class TestQuery:
    def test_operator_lookup(self, three_op_query: Query):
        assert three_op_query.operator(1).name == "op2"
        with pytest.raises(KeyError):
            three_op_query.operator(99)

    def test_len_and_ids(self, three_op_query: Query):
        assert len(three_op_query) == 3
        assert three_op_query.operator_ids == (0, 1, 2)

    def test_duplicate_ids_rejected(self):
        ops = (
            Operator(0, "a", 1.0, 0.5),
            Operator(0, "b", 1.0, 0.5),
        )
        with pytest.raises(ValueError, match="duplicate operator ids"):
            Query("bad", ops)

    def test_empty_operators_rejected(self):
        with pytest.raises(ValueError, match="operators"):
            Query("empty", ())

    def test_driving_rate_from_first_stream(self, three_op_query: Query):
        assert three_op_query.driving_rate == 100.0

    def test_driving_rate_default_without_streams(self):
        q = Query("nostreams", (Operator(0, "a", 1.0, 0.5),))
        assert q.driving_rate == 100.0

    def test_default_estimates_cover_all_stats(self, three_op_query: Query):
        est = three_op_query.default_estimates({"sel:0": 2})
        assert est.estimates["rate"] == 100.0
        assert est.estimates["sel:1"] == 0.5
        assert est.uncertainty == {"sel:0": 2}

    def test_estimate_point(self, three_op_query: Query):
        point = three_op_query.estimate_point()
        assert point["sel:2"] == 0.4
        assert point["rate"] == 100.0
