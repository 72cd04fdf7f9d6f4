"""Bitwise parity of the ERP corner prefetch with the serial path.

`repro.core.parallel` promises that `--jobs N` changes *when* corner
searches run (worker processes, speculatively) but never *what* the
compiler computes: logical solutions, discovery logs, call accounting
(down to the caller's own optimizer), the aging-counter stopping point,
plan weights, loads and physical plans must all be bitwise-identical to
`--jobs 1`.  These tests drive random queries, spaces, budgets, and
epsilon values through both paths and compare everything observable.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Cluster,
    EarlyTerminatedRobustPartitioning,
    RLDConfig,
    RLDOptimizer,
    WeightedRobustPartitioning,
)
from repro.core import parallel
from repro.core.parameter_space import ParameterSpace
from repro.query.optimizer import make_optimizer
from repro.workloads.queries import build_nway, build_q1

# Pool start-up dominates each example, so examples are few but each
# covers a full compile; deadline is disabled for the same reason.
_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _estimate(query, level: int, n_dims: int):
    """Uncertainty on the first ``n_dims`` selectivities."""
    uncertainty = {
        op.selectivity_param: level for op in query.operators[:n_dims]
    }
    return query.default_estimates(uncertainty)


def _partitioning_key(result, optimizer):
    """Everything a partitioning run observably computes, plus the
    calls charged to the caller's ``optimizer``."""
    return {
        "caller_calls": optimizer.call_count,
        "plans": result.solution.plans,
        "discoveries": result.solution.discoveries,
        "optimizer_calls": result.optimizer_calls,
        "regions_processed": result.regions_processed,
        "terminated_early": result.terminated_early,
        "budget_exhausted": result.budget_exhausted,
        "unresolved_regions": result.unresolved_regions,
        "weight_computations": result.weight_computations,
        "weight_skips": result.weight_skips,
        "verified_regions": tuple(
            tuple(result.solution.verified_regions_of(plan))
            for plan in result.solution.plans
        ),
    }


def _run_erp(query, space, *, epsilon, max_calls, jobs, early=True):
    """One partitioning run; returns its :func:`_partitioning_key`."""
    cls = (
        EarlyTerminatedRobustPartitioning if early else WeightedRobustPartitioning
    )
    optimizer = make_optimizer(query)
    partitioner = cls(
        query,
        space,
        optimizer=optimizer,
        epsilon=epsilon,
        max_calls=max_calls,
        jobs=jobs,
    )
    return _partitioning_key(partitioner.run(), optimizer)


class TestERPParity:
    @_SETTINGS
    @given(
        n_ops=st.integers(min_value=3, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        chain=st.booleans(),
        n_dims=st.integers(min_value=1, max_value=2),
        level=st.integers(min_value=1, max_value=3),
        epsilon=st.sampled_from([0.1, 0.2, 0.35]),
        max_calls=st.sampled_from([None, 4, 9]),
        jobs=st.sampled_from([2, 4]),
    )
    def test_erp_bitwise_identical(
        self, n_ops, seed, chain, n_dims, level, epsilon, max_calls, jobs
    ):
        query = build_nway(n_ops, seed=seed, chain=chain)
        estimate = _estimate(query, level, n_dims)
        space = ParameterSpace.from_estimates(estimate, points_per_level=2)
        serial = _run_erp(
            query, space, epsilon=epsilon, max_calls=max_calls, jobs=1
        )
        parallel = _run_erp(
            query, space, epsilon=epsilon, max_calls=max_calls, jobs=jobs
        )
        assert parallel == serial

    def test_aging_counter_stop_identical(self):
        # A query/space where ERP demonstrably stops early: the parallel
        # run must stop at the same region count despite workers having
        # speculatively solved points beyond the stopping wave.
        query = build_q1()
        estimate = _estimate(query, 3, 3)
        space = ParameterSpace.from_estimates(estimate, points_per_level=2)
        serial = _run_erp(query, space, epsilon=0.02, max_calls=None, jobs=1)
        parallel = _run_erp(query, space, epsilon=0.02, max_calls=None, jobs=4)
        assert serial["terminated_early"]
        assert parallel == serial

    def test_budget_exhaustion_identical(self):
        query = build_q1()
        estimate = _estimate(query, 3, 3)
        space = ParameterSpace.from_estimates(estimate, points_per_level=2)
        serial = _run_erp(query, space, epsilon=0.02, max_calls=5, jobs=1)
        parallel = _run_erp(query, space, epsilon=0.02, max_calls=5, jobs=2)
        assert serial["budget_exhausted"]
        assert parallel == serial

    def test_prefetch_actually_hit(self):
        # Guard against the pool silently never being used: calls must
        # have been answered by worker searches, not by the parent's.
        query = build_q1()
        estimate = _estimate(query, 3, 3)
        space = ParameterSpace.from_estimates(estimate, points_per_level=2)
        optimizer = make_optimizer(query)
        parent_searches = []
        search = optimizer._find_best
        optimizer._find_best = lambda point: (
            parent_searches.append(point) or search(point)
        )
        result = EarlyTerminatedRobustPartitioning(
            query, space, optimizer=optimizer, epsilon=0.2, jobs=2
        ).run()
        assert result.optimizer_calls == optimizer.call_count > 0
        assert len(parent_searches) < result.optimizer_calls
        assert result.worker_seconds > 0.0

    def test_spawn_start_method_stays_deterministic(self, monkeypatch):
        # Pool workers started by `spawn` rebuild the optimizer from a
        # pickle instead of inheriting it; results must be identical.
        monkeypatch.setattr(parallel, "_start_method", lambda: "spawn")
        query = build_nway(4, seed=11)
        estimate = _estimate(query, 2, 2)
        space = ParameterSpace.from_estimates(estimate, points_per_level=2)
        serial = _run_erp(query, space, epsilon=0.2, max_calls=None, jobs=1)
        spawned = _run_erp(query, space, epsilon=0.2, max_calls=None, jobs=2)
        assert spawned == serial

    def test_large_space_never_builds_the_grid_matrix(self, bounded_points_matrix):
        # The 10-way join with every selectivity uncertain has a space
        # whose dense grid matrix would not fit in memory; workers must
        # get the corner points themselves, never a copy of the grid.
        query = build_nway(10, seed=3)
        estimate = _estimate(query, 3, len(query.operators))
        space = ParameterSpace.from_estimates(estimate, points_per_level=2)
        with bounded_points_matrix():
            serial = _run_erp(query, space, epsilon=0.2, max_calls=40, jobs=1)
            parallel = _run_erp(query, space, epsilon=0.2, max_calls=40, jobs=2)
        assert parallel == serial


def _solution_key(solution, optimizer):
    """Everything an RLD compile observably computes (no timings), plus
    the calls charged to the caller's ``optimizer``."""
    table = solution.load_table
    return (
        optimizer.call_count,
        solution.logical.plans,
        solution.logical.discoveries,
        solution.partitioning.optimizer_calls,
        solution.partitioning.terminated_early,
        solution.partitioning.unresolved_regions,
        tuple(table.weight_of(plan) for plan in table.plans),
        table.load_matrix.tobytes(),
        solution.physical.algorithm,
        solution.physical.physical_plan,
        solution.physical.supported_plans,
        solution.physical.score,
    )


def _compile_key(query, cluster, estimate, jobs):
    optimizer = make_optimizer(query)
    solution = RLDOptimizer(
        query, cluster, config=RLDConfig(jobs=jobs), point_optimizer=optimizer
    ).solve(estimate)
    return _solution_key(solution, optimizer)


class TestPipelineParity:
    @_SETTINGS
    @given(
        n_ops=st.integers(min_value=3, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_dims=st.integers(min_value=1, max_value=2),
        level=st.integers(min_value=1, max_value=2),
        jobs=st.sampled_from([2, 4]),
        nodes=st.integers(min_value=2, max_value=4),
    )
    def test_full_compile_bitwise_identical(
        self, n_ops, seed, n_dims, level, jobs, nodes
    ):
        query = build_nway(n_ops, seed=seed)
        estimate = _estimate(query, level, n_dims)
        cluster = Cluster.homogeneous(nodes, 420.0)
        assert _compile_key(query, cluster, estimate, jobs) == _compile_key(
            query, cluster, estimate, 1
        )

    def test_q1_jobs_sweep_identical(self):
        query = build_q1()
        cluster = Cluster.homogeneous(4, 420.0)
        estimate = _estimate(query, 3, len(query.operators))
        keys = [
            _compile_key(query, cluster, estimate, jobs) for jobs in (1, 2, 4)
        ]
        assert keys[1] == keys[0]
        assert keys[2] == keys[0]

    def test_cli_default_compile_identical(self):
        # `repro compile` at its defaults: q1, every selectivity at
        # level 3 and the rate at level 2, 4 nodes of capacity 380.
        query = build_q1()
        uncertainty = {op.selectivity_param: 3 for op in query.operators}
        estimate = query.default_estimates(uncertainty | {"rate": 2})
        cluster = Cluster.homogeneous(4, 380.0)
        assert _compile_key(query, cluster, estimate, 2) == _compile_key(
            query, cluster, estimate, 1
        )

    def test_serial_config_adds_no_worker_stages(self):
        query = build_q1()
        cluster = Cluster.homogeneous(4, 420.0)
        estimate = _estimate(query, 2, 2)
        solution = RLDOptimizer(query, cluster).solve(estimate)
        assert not any(
            name.startswith("workers:") for name in solution.stage_seconds
        )

