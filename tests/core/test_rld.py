"""Tests for the end-to-end RLD optimizer facade."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import Cluster, RLDConfig, RLDOptimizer
from repro.query.optimizer import DPOptimizer
from repro.workloads import build_nway

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "erp_dp_nway9.json"


@pytest.fixture
def estimate(four_op_query):
    return four_op_query.default_estimates({"sel:1": 1, "sel:2": 3, "rate": 2})


class TestRLDConfig:
    def test_defaults(self):
        config = RLDConfig()
        assert config.epsilon == 0.2
        assert config.physical_algorithm == "optprune"

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        # ``nan < 0`` is false: without the finiteness check a NaN
        # epsilon failed every Def. 1 test yet compiled.
        with pytest.raises(ValueError, match="epsilon must be finite"):
            RLDConfig(epsilon=epsilon)

    @pytest.mark.parametrize("sigma_fraction", [float("nan"), float("inf")])
    def test_non_finite_sigma_fraction_rejected(self, sigma_fraction):
        # A NaN sigma_fraction used to compile a solution scored NaN.
        with pytest.raises(ValueError, match="sigma_fraction must be finite"):
            RLDConfig(sigma_fraction=sigma_fraction)

    @pytest.mark.parametrize("sigma_fraction", [0.0, -0.5])
    def test_non_positive_sigma_fraction_rejected(self, sigma_fraction):
        with pytest.raises(ValueError, match="sigma_fraction must be > 0"):
            RLDConfig(sigma_fraction=sigma_fraction)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown physical_algorithm"):
            RLDConfig(physical_algorithm="magic")


class TestSolve:
    def test_produces_feasible_solution(self, four_op_query, estimate):
        cluster = Cluster.homogeneous(3, 400.0)
        solution = RLDOptimizer(four_op_query, cluster).solve(estimate)
        assert solution.feasible
        assert len(solution.logical) >= 1
        assert solution.physical.physical_plan.covers(four_op_query.operator_ids)

    def test_summary_mentions_plans(self, four_op_query, estimate):
        cluster = Cluster.homogeneous(3, 400.0)
        solution = RLDOptimizer(four_op_query, cluster).solve(estimate)
        text = solution.summary()
        assert "logical plans" in text
        assert "physical plan" in text

    def test_supported_plans_subset_of_logical(self, four_op_query, estimate):
        cluster = Cluster.homogeneous(3, 400.0)
        solution = RLDOptimizer(four_op_query, cluster).solve(estimate)
        assert set(solution.supported_plans) <= set(solution.logical.plans)

    def test_greedy_algorithm_selectable(self, four_op_query, estimate):
        cluster = Cluster.homogeneous(3, 400.0)
        config = RLDConfig(physical_algorithm="greedy")
        solution = RLDOptimizer(four_op_query, cluster, config=config).solve(estimate)
        assert solution.physical.algorithm == "GreedyPhy"

    def test_optprune_score_at_least_greedy(self, four_op_query, estimate):
        cluster = Cluster.homogeneous(2, 260.0)
        greedy = RLDOptimizer(
            four_op_query, cluster, config=RLDConfig(physical_algorithm="greedy")
        ).solve(estimate)
        optimal = RLDOptimizer(
            four_op_query, cluster, config=RLDConfig(physical_algorithm="optprune")
        ).solve(estimate)
        assert optimal.physical.score >= greedy.physical.score - 1e-12

    def test_uses_query_defaults_without_estimate(self, four_op_query):
        # No uncertainty declared → no space → a clear error.
        cluster = Cluster.homogeneous(3, 400.0)
        with pytest.raises(ValueError, match="uncertain parameters"):
            RLDOptimizer(four_op_query, cluster).solve()

    def test_cluster_recorded_in_solution(self, four_op_query, estimate):
        cluster = Cluster.homogeneous(3, 400.0)
        solution = RLDOptimizer(four_op_query, cluster).solve(estimate)
        assert solution.cluster is cluster

    def test_deterministic(self, four_op_query, estimate):
        cluster = Cluster.homogeneous(3, 400.0)
        a = RLDOptimizer(four_op_query, cluster).solve(estimate)
        b = RLDOptimizer(four_op_query, cluster).solve(estimate)
        assert a.logical.plans == b.logical.plans
        assert a.physical.physical_plan == b.physical.physical_plan


class TestDPGolden:
    """Serial ERP with the Held–Karp optimizer on a 9-way join.

    The scenario splits deeply (273 calls, 68 plans) before the aging
    counter stops it, so it pins the exact order of ERP's optimizer
    calls: any batched or reordered corner search must reproduce the
    call count and every discovery's ``at_call`` bit for bit.
    """

    @pytest.fixture(scope="class")
    def compiled(self):
        query = build_nway(9, seed=13)
        estimate = query.default_estimates(
            {op.selectivity_param: 3 for op in query.operators[:4]}
        )
        optimizer = DPOptimizer(query)
        solution = RLDOptimizer(
            query,
            Cluster.homogeneous(4, 420.0),
            config=RLDConfig(epsilon=0.02),
            point_optimizer=optimizer,
        ).solve(estimate)
        return solution, optimizer

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_optimizer_calls_and_early_stop(self, compiled, golden):
        solution, optimizer = compiled
        assert optimizer.call_count == golden["optimizer_calls"]
        assert solution.partitioning.optimizer_calls == golden["optimizer_calls"]
        assert solution.partitioning.terminated_early is golden["terminated_early"]

    def test_discoveries(self, compiled, golden):
        solution, _ = compiled
        found = [
            [list(d.plan.order), d.at_call] for d in solution.logical.discoveries
        ]
        assert found == golden["discoveries"]

    def test_supported_plans_and_score(self, compiled, golden):
        solution, _ = compiled
        supported = [list(plan.order) for plan in solution.supported_plans]
        assert supported == golden["supported_plans"]
        assert solution.physical.score == golden["score"]
