"""Tests for the hybrid RLD + fallback-migration strategy."""

from __future__ import annotations

import pytest

from repro.core import Cluster, RLDConfig, RLDOptimizer
from repro.engine import StreamSimulator
from repro.query import StatPoint
from repro.runtime import RLDHybridStrategy, RLDStrategy
from repro.workloads import ConstantRate, Workload, build_q1, stock_workload


@pytest.fixture(scope="module")
def solution():
    query = build_q1()
    estimate = query.default_estimates(
        {op.selectivity_param: 3 for op in query.operators} | {"rate": 2}
    )
    cluster = Cluster.homogeneous(4, 380.0)
    return RLDOptimizer(query, cluster, config=RLDConfig(epsilon=0.2)).solve(estimate)


class TestSpaceMembership:
    def test_estimate_point_is_inside(self, solution):
        strategy = RLDHybridStrategy(solution)
        assert strategy.in_compiled_space(solution.query.estimate_point())

    def test_far_outside_rate_detected(self, solution):
        strategy = RLDHybridStrategy(solution)
        wild = solution.query.estimate_point().replacing(rate=1000.0)
        assert not strategy.in_compiled_space(wild)

    def test_tolerance_stretches_bounds(self, solution):
        hi_rate = max(
            d.hi for d in solution.space.dimensions if d.name == "rate"
        )
        slightly_out = solution.query.estimate_point().replacing(rate=hi_rate * 1.05)
        tight = RLDHybridStrategy(solution, space_tolerance=1.0)
        loose = RLDHybridStrategy(solution, space_tolerance=1.2)
        assert not tight.in_compiled_space(slightly_out)
        assert loose.in_compiled_space(slightly_out)

    def test_unknown_parameters_ignored(self, solution):
        strategy = RLDHybridStrategy(solution)
        partial = StatPoint({"something:else": 123.0})
        assert strategy.in_compiled_space(partial)

    def test_invalid_parameters(self, solution):
        with pytest.raises(ValueError):
            RLDHybridStrategy(solution, space_tolerance=0.9)
        with pytest.raises(ValueError):
            RLDHybridStrategy(solution, cooldown_seconds=0.0)


class TestRuntimeBehaviour:
    def test_no_migration_inside_space(self, solution):
        query = solution.query
        strategy = RLDHybridStrategy(solution)
        workload = stock_workload(query, uncertainty_level=3)
        report = StreamSimulator(
            query, solution.cluster, strategy, workload, seed=3
        ).run(120.0)
        assert report.migrations == 0

    def test_migrates_under_extreme_unexpected_load(self, solution):
        query = solution.query
        strategy = RLDHybridStrategy(
            solution, saturation_threshold=0.8, cooldown_seconds=10.0
        )
        # 4x the estimate rate: far outside the level-2 rate dimension.
        workload = Workload(query, rate_profile=ConstantRate(4.0))
        report = StreamSimulator(
            query, solution.cluster, strategy, workload, seed=3
        ).run(120.0)
        assert report.migrations >= 1

    def test_migration_ticks_route_no_batch(self, solution):
        # A migration decision looks the routed plan up without counting
        # a routing-table hit or miss for a batch that does not exist.
        query = solution.query
        strategy = RLDHybridStrategy(
            solution, saturation_threshold=0.8, cooldown_seconds=10.0
        )
        workload = Workload(query, rate_profile=ConstantRate(4.0))
        report = StreamSimulator(
            query, solution.cluster, strategy, workload, seed=3
        ).run(120.0)
        assert report.migrations >= 1
        assert strategy.table_hits + strategy.table_misses == report.batches_injected

    def test_routing_identical_to_pure_rld(self, solution):
        pure = RLDStrategy(solution)
        hybrid = RLDHybridStrategy(solution)
        point = solution.query.estimate_point()
        assert hybrid.route(0.0, point).plan == pure.route(0.0, point).plan

    def test_hybrid_not_worse_than_pure_rld_outside_space(self, solution):
        query = solution.query
        workload = Workload(query, rate_profile=ConstantRate(4.0))
        pure_report = StreamSimulator(
            query, solution.cluster, RLDStrategy(solution), workload, seed=3
        ).run(120.0)
        hybrid_report = StreamSimulator(
            query,
            solution.cluster,
            RLDHybridStrategy(solution, saturation_threshold=0.8),
            workload,
            seed=3,
        ).run(120.0)
        assert (
            hybrid_report.batches_completed >= pure_report.batches_completed * 0.9
        )
