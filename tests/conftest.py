"""Shared fixtures: small canonical queries, spaces, and clusters."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import Cluster, ParameterSpace
from repro.core import logical
from repro.query import Operator, Query, StreamSchema
from repro.workloads import build_q1, build_q2


@pytest.fixture
def three_op_query() -> Query:
    """Example 1's shape: three operators with distinct costs/selectivities."""
    operators = (
        Operator(op_id=0, name="op1", cost_per_tuple=3.0, selectivity=0.6),
        Operator(op_id=1, name="op2", cost_per_tuple=2.0, selectivity=0.5),
        Operator(op_id=2, name="op3", cost_per_tuple=1.0, selectivity=0.4),
    )
    streams = (StreamSchema("Stocks", ("symbol", "price"), base_rate=100.0),)
    return Query("stock3", operators, streams)


@pytest.fixture
def four_op_query() -> Query:
    """Four operators with clustered ranks (orderings fluctuation-sensitive)."""
    operators = (
        Operator(op_id=0, name="op0", cost_per_tuple=3.0, selectivity=0.55),
        Operator(op_id=1, name="op1", cost_per_tuple=2.0, selectivity=0.50),
        Operator(op_id=2, name="op2", cost_per_tuple=1.2, selectivity=0.60),
        Operator(op_id=3, name="op3", cost_per_tuple=0.9, selectivity=0.45),
    )
    streams = (StreamSchema("S", (), base_rate=100.0),)
    return Query("four", operators, streams)


@pytest.fixture
def q1() -> Query:
    """The paper's Q1 (5-way join)."""
    return build_q1()


@pytest.fixture
def q2() -> Query:
    """The paper's Q2 (10-way join)."""
    return build_q2()


@pytest.fixture
def space_2d(three_op_query: Query) -> ParameterSpace:
    """A 2-D parameter space over two of the query's selectivities."""
    estimate = three_op_query.default_estimates({"sel:0": 2, "sel:2": 2})
    return ParameterSpace.from_estimates(estimate, points_per_level=3)


@pytest.fixture
def small_cluster() -> Cluster:
    """Three homogeneous machines."""
    return Cluster.homogeneous(3, 250.0)


@pytest.fixture
def bounded_values_at(monkeypatch):
    """A context manager under which ``ParameterSpace.values_at``
    refuses index columns longer than ``SCAN_BLOCK_ROWS``: code run
    inside it never gathers the values of a whole grid.  Activate it
    around the code under test only; checks on whole cell sets run
    outside."""
    unbounded = ParameterSpace.values_at

    def bounded(space, indices):
        rows = max(np.size(index) for index in indices)
        if rows > logical.SCAN_BLOCK_ROWS:
            raise AssertionError(f"values_at asked for {rows} rows")
        return unbounded(space, indices)

    @contextmanager
    def guard():
        monkeypatch.setattr(ParameterSpace, "values_at", bounded)
        try:
            yield
        finally:
            monkeypatch.setattr(ParameterSpace, "values_at", unbounded)

    return guard
