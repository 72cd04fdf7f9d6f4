"""Integration tests: the full compile→simulate pipeline on Q1/Q2.

These exercise the paper's headline claims end-to-end on scaled-down
scenarios: ERP covers the space with far fewer optimizer calls than ES;
OptPrune matches exhaustive physical quality; and at runtime RLD beats
ROD and DYN on fluctuating streams while never migrating.
"""

from __future__ import annotations

import pytest

from repro.core import (
    Cluster,
    EarlyTerminatedRobustPartitioning,
    ExhaustiveSearch,
    NormalOccurrenceModel,
    ParameterSpace,
    PlanLoadTable,
    RLDConfig,
    RLDOptimizer,
    compute_plan_diagram,
    exhaustive_physical,
    measure_coverage,
    opt_prune,
)
from repro.query import make_optimizer
from repro.runtime import compare_strategies
from repro.runtime.comparison import build_standard_strategies
from repro.workloads import build_q1, stock_workload


@pytest.fixture(scope="module")
def q1_setup():
    # 2-D space over Q1's two near-unit-fanout joins, whose rank
    # crossings produce a genuinely multi-plan space at level 3.
    query = build_q1()
    estimate = query.default_estimates({"sel:1": 3, "sel:3": 3})
    space = ParameterSpace.from_estimates(estimate, points_per_level=2)
    return query, estimate, space


class TestLogicalPipeline:
    def test_erp_cheaper_than_es_with_comparable_coverage(self, q1_setup):
        query, _, space = q1_setup
        epsilon = 0.2
        erp = EarlyTerminatedRobustPartitioning(query, space, epsilon=epsilon).run()
        es = ExhaustiveSearch(query, space, epsilon=epsilon).run()
        assert erp.optimizer_calls < es.optimizer_calls

        diagram = compute_plan_diagram(space, make_optimizer(query))
        erp_coverage = measure_coverage(erp.solution.plans, diagram, epsilon)
        es_coverage = measure_coverage(es.solution.plans, diagram, epsilon)
        assert es_coverage == 1.0
        assert erp_coverage >= 0.85 * es_coverage

    def test_multiple_robust_plans_found(self, q1_setup):
        query, _, space = q1_setup
        result = EarlyTerminatedRobustPartitioning(query, space, epsilon=0.1).run()
        assert len(result.solution) >= 2


class TestPhysicalPipeline:
    def test_optprune_matches_exhaustive_quality(self, q1_setup):
        query, _, space = q1_setup
        logical = EarlyTerminatedRobustPartitioning(query, space, epsilon=0.2).run()
        occurrence = NormalOccurrenceModel(space)
        table = PlanLoadTable.from_solution(logical.solution, occurrence=occurrence)
        for n_nodes in (2, 3, 4):
            cluster = Cluster.homogeneous(n_nodes, 1000.0 / n_nodes * 1.4)
            pruned = opt_prune(table, cluster)
            optimal = exhaustive_physical(table, cluster)
            assert pruned.score == pytest.approx(optimal.score, abs=1e-9)

    def test_more_machines_support_more_plans(self, q1_setup):
        query, estimate, _ = q1_setup
        scores = []
        for n_nodes in (2, 4, 6):
            cluster = Cluster.homogeneous(n_nodes, 330.0)
            solution = RLDOptimizer(
                query, cluster, config=RLDConfig(epsilon=0.2)
            ).solve(estimate)
            scores.append(solution.physical.score)
        assert scores == sorted(scores)


class TestRuntimeComparison:
    @pytest.fixture(scope="class")
    def comparison(self, q1_setup):
        query, _, _ = q1_setup
        estimate = query.default_estimates(
            {op.selectivity_param: 3 for op in query.operators} | {"rate": 2}
        )
        cluster = Cluster.homogeneous(4, 380.0)
        strategies = build_standard_strategies(query, cluster, estimate=estimate)
        workload = stock_workload(query, uncertainty_level=3, regime_period=60.0)
        return compare_strategies(
            query, cluster, workload, strategies, duration=180.0, seed=13
        )

    def test_rld_never_migrates(self, comparison):
        assert comparison.reports["RLD"].migrations == 0

    def test_rld_beats_rod_on_fluctuating_stream(self, comparison):
        assert comparison.latency_ms("RLD") <= comparison.latency_ms("ROD")

    def test_rld_completes_at_least_as_much_work_as_baselines(self, comparison):
        # Completed source tuples measure throughput capacity; raw output
        # counts are additionally modulated by *when* each operator
        # samples its fluctuating selectivity, which differs across
        # pipeline speeds.
        rld_done = comparison.reports["RLD"].batches_completed
        assert rld_done >= comparison.reports["ROD"].batches_completed
        assert rld_done >= comparison.reports["DYN"].batches_completed

    def test_rld_overhead_small(self, comparison):
        assert comparison.reports["RLD"].overhead_fraction < 0.05

    def test_dyn_pays_migration_stalls(self, comparison):
        dyn = comparison.reports["DYN"]
        if dyn.migrations:
            assert dyn.migration_stall_seconds > 0
