"""Tests for the plan cost model."""

from __future__ import annotations

import cost_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import (
    LogicalPlan,
    Operator,
    PlanCostModel,
    Query,
    StatPoint,
    StreamSchema,
)


@pytest.fixture
def model(three_op_query) -> PlanCostModel:
    return PlanCostModel(three_op_query)


class TestPlanCost:
    def test_hand_computed_cost(self, model):
        # Plan op0->op1->op2 at defaults: rate=100, c=(3,2,1), σ=(0.6,0.5,0.4)
        # cost = 100·(3 + 0.6·2 + 0.6·0.5·1) = 100·4.5 = 450
        plan = LogicalPlan((0, 1, 2))
        assert model.plan_cost(plan, {}) == pytest.approx(450.0)

    def test_point_overrides_defaults(self, model):
        plan = LogicalPlan((0, 1, 2))
        cost = model.plan_cost(plan, StatPoint({"sel:0": 1.0, "rate": 10.0}))
        # 10·(3 + 1·2 + 1·0.5·1) = 55
        assert cost == pytest.approx(55.0)

    def test_cheaper_to_run_selective_cheap_op_first(self, model):
        # op2 (c=1, σ=0.4) first beats op0 (c=3, σ=0.6) first.
        point = {}
        assert model.plan_cost(LogicalPlan((2, 1, 0)), point) < model.plan_cost(
            LogicalPlan((0, 1, 2)), point
        )

    def test_operator_load_decomposition(self, model):
        plan = LogicalPlan((2, 1, 0))
        point = StatPoint({"rate": 100.0})
        loads = model.operator_loads(plan, point)
        assert sum(loads.values()) == pytest.approx(model.plan_cost(plan, point))
        # op0 runs last, on what op2 and op1 let through.
        assert loads[0] == pytest.approx(100.0 * 3.0 * 0.4 * 0.5)

    def test_first_operator_load_is_rate_times_cost(self, model):
        plan = LogicalPlan((1, 0, 2))
        load = model.operator_loads(plan, StatPoint({"rate": 50.0}))[1]
        assert load == pytest.approx(50.0 * 2.0)

    def test_cost_monotone_in_each_dimension(self, model):
        # §4.2 Principle 1: cost increases along each dimension.
        plan = LogicalPlan((0, 1, 2))
        base = StatPoint({"sel:0": 0.5, "sel:1": 0.5, "rate": 100.0})
        c0 = model.plan_cost(plan, base)
        assert model.plan_cost(plan, base.replacing(sel__0=0.6)) > c0
        assert model.plan_cost(plan, base.replacing(sel__1=0.6)) > c0
        assert model.plan_cost(plan, base.replacing(rate=120.0)) > c0


def _gradient(model, plan, point):
    """``gradients_batch`` at one point, as ``{parameter: partial}``."""
    names = list(point)
    row = model.gradients_batch(plan, [np.array([point[n]]) for n in names], names)
    return dict(zip(names, row[0]))


class TestGradient:
    def test_gradient_matches_finite_differences(self, model):
        plan = LogicalPlan((0, 1, 2))
        point = StatPoint({"sel:0": 0.5, "sel:2": 0.7, "rate": 90.0})
        grads = _gradient(model, plan, point)
        h = 1e-6
        for name in point:
            bumped = point.updated({name: point[name] + h})
            fd = (model.plan_cost(plan, bumped) - model.plan_cost(plan, point)) / h
            assert grads[name] == pytest.approx(fd, rel=1e-4), name

    def test_gradient_only_for_present_params(self, model, three_op_query):
        # One column per name asked for, in order; a name that prices
        # nothing gets a zero column.
        plan = LogicalPlan((0, 1, 2))
        names = ["sel:1", "bogus"]
        grads = model.gradients_batch(plan, [np.array([0.5]), np.array([7.0])], names)
        assert grads.shape == (1, 2)
        expected = cost_oracle.gradient(three_op_query, plan, {"sel:1": 0.5})
        assert set(expected) == {"sel:1"}
        assert grads[0, 0] == pytest.approx(expected["sel:1"], rel=1e-12)
        assert grads[0, 1] == 0.0

    def test_last_operator_selectivity_has_zero_gradient(self, model):
        # σ of the last operator never multiplies any cost term.
        plan = LogicalPlan((0, 1, 2))
        grads = _gradient(model, plan, StatPoint({"sel:2": 0.4}))
        assert grads["sel:2"] == pytest.approx(0.0)


class TestResolve:
    def test_point_values_override_estimates_in_operator_order(
        self, model, three_op_query
    ):
        rate, sels = model.resolve({"sel:1": 0.9, "unrelated": 5.0})
        assert rate == three_op_query.driving_rate
        assert sels == [0.6, 0.9, 0.4]

    def test_columns_resolve_like_points(self, model):
        columns = [np.array([0.9, 0.8]), np.array([0.2, 0.3])]
        rate, sels = model.resolve_axes(columns, ["sel:1", "sel:2"])
        # No rate column: the driving rate, a float that broadcasts
        # against the batch like the unnamed selectivity does.
        assert rate == 100.0
        assert sels[0] == 0.6
        assert sels[1].tolist() == [0.9, 0.8]
        assert sels[2].tolist() == [0.2, 0.3]

    def test_steps_are_memoized_per_plan(self, model):
        steps = model.steps(LogicalPlan((2, 0, 1)))
        assert steps == ((1.0, 2), (3.0, 0), (2.0, 1))
        assert model.steps(LogicalPlan((2, 0, 1))) is steps


class TestMultilinearity:
    def test_cost_is_linear_along_each_parameter(self, model):
        # §2.3's cost family is multilinear: with every other parameter
        # fixed, cost is a straight line in each one, so the midpoint
        # cost is the mean of the two endpoint costs.
        base = {"sel:0": 0.3, "sel:1": 0.7, "sel:2": 0.45, "rate": 80.0}
        ends = {"sel:0": (0.1, 0.9), "sel:1": (0.2, 1.5),
                "sel:2": (0.05, 0.6), "rate": (10.0, 250.0)}
        for order in [(0, 1, 2), (2, 1, 0), (1, 2, 0)]:
            plan = LogicalPlan(order)
            for name, (lo, hi) in ends.items():
                low = model.plan_cost(plan, {**base, name: lo})
                high = model.plan_cost(plan, {**base, name: hi})
                mid = model.plan_cost(plan, {**base, name: 0.5 * (lo + hi)})
                assert mid == pytest.approx(
                    0.5 * (low + high), rel=1e-12
                ), (order, name)


@settings(max_examples=30)
@given(
    costs=st.lists(st.floats(0.1, 5.0), min_size=2, max_size=5),
    sels=st.data(),
)
def test_plan_cost_invariant_total_equals_load_sum(costs, sels):
    """Property: Σ operator loads == plan cost for any pipeline."""
    n = len(costs)
    selectivities = [
        sels.draw(st.floats(0.05, 2.0), label=f"sel{i}") for i in range(n)
    ]
    ops = tuple(
        Operator(i, f"op{i}", costs[i], selectivities[i]) for i in range(n)
    )
    q = Query("prop", ops, (StreamSchema("S", base_rate=10.0),))
    model = PlanCostModel(q)
    plan = LogicalPlan(tuple(range(n)))
    point = q.estimate_point()
    loads = model.operator_loads(plan, point)
    assert sum(loads.values()) == pytest.approx(model.plan_cost(plan, point), rel=1e-9)
