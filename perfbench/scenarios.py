"""The benchmark's workloads: their inputs and one untraced operation each.

Each workload object is built once per process (that is the set-up the
benchmark times) and then runs its operation repeatedly.  An operation
returns an :class:`Outcome`: its wall time, how many program operations
it attempted and how many failed, a fingerprint of everything it
computed, and the work counts a traced run must reproduce exactly.
The traced twin of each operation lives in :mod:`layers`.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.core import Cluster, RLDConfig, RLDOptimizer
from repro.core.partitioning import PartitioningResult
from repro.core.physical import PhysicalPlanResult, PlanLoadTable
from repro.core.rld import RLDSolution
from repro.engine.faults import FaultSchedule
from repro.engine.system import LoadDistributionStrategy, StreamSimulator
from repro.query.model import Query
from repro.query.optimizer import DPOptimizer, PointOptimizer, make_optimizer
from repro.query.statistics import StatisticsEstimate
from repro.runtime.comparison import build_standard_strategies
from repro.runtime.rld_runtime import RLDStrategy
from repro.workloads import build_nway, build_q1, stock_workload


@dataclass
class Outcome:
    """One timed operation: a compile, or one 3-strategy simulation.

    ``fingerprint`` maps a part of the result (``"compile"``, or a
    strategy name) to its deterministic face.  ``exact`` holds metrics
    that must repeat exactly wherever they are reported (work counts and
    simulated results); ``times`` holds timings.  Both are keyed by
    metric name.
    """

    seconds: float
    attempted: int
    failed: int = 0
    fingerprint: dict[str, object] = field(default_factory=dict)
    exact: dict[str, float] = field(default_factory=dict)
    times: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CompileScenario:
    """The inputs of one RLD compile."""

    build_query: Callable[[], Query]
    uncertainty: Callable[[Query], dict[str, int]]
    cluster: Cluster
    config: RLDConfig
    point_optimizer: Callable[[Query], PointOptimizer]

    def inputs(self) -> tuple[Query, StatisticsEstimate]:
        """A freshly built query and its estimate.

        Every compile gets its own query, so no compile reuses caches
        that an earlier one filled.
        """
        query = self.build_query()
        return query, query.default_estimates(self.uncertainty(query))


def _cli_uncertainty(query: Query) -> dict[str, int]:
    """The CLI default: every selectivity at level 3, the rate at level 2."""
    uncertainty = {op.selectivity_param: 3 for op in query.operators}
    uncertainty["rate"] = 2
    return uncertainty


#: ``repro compile`` with every option at its default.
Q1_CLI = CompileScenario(
    build_q1,
    _cli_uncertainty,
    Cluster.homogeneous(4, 380.0),
    RLDConfig(epsilon=0.2),
    make_optimizer,
)

#: The 12-way join compile once recorded in BENCH_parallel.json, serial.
JOIN12 = CompileScenario(
    lambda: build_nway(12, seed=13),
    lambda query: {op.selectivity_param: 3 for op in query.operators[:4]},
    Cluster.homogeneous(4, 420.0),
    RLDConfig(epsilon=0.02),
    DPOptimizer,
)


def compile_fingerprint(
    partitioning: PartitioningResult,
    table: PlanLoadTable,
    physical: PhysicalPlanResult,
) -> tuple[object, ...]:
    """Plans, weights, loads, placement and score of one compile."""
    return (
        partitioning.solution.plans,
        partitioning.solution.discoveries,
        table.plans,
        tuple(table.weight_of(plan) for plan in table.plans),
        table.load_matrix.tolist(),
        [table.expected_loads(table.mask_of([plan])) for plan in table.plans],
        physical.physical_plan,
        physical.supported_plans,
        physical.score,
    )


def compile_counts(
    partitioning: PartitioningResult, physical: PhysicalPlanResult
) -> dict[str, float]:
    """Work counts both the untraced and the traced compile report."""
    return {
        "query.optimizer.calls": partitioning.optimizer_calls,
        "core.partitioning.regions": partitioning.regions_processed,
        "core.partitioning.weight_computations": partitioning.weight_computations,
        "core.logical.plans": len(partitioning.solution.plans),
        "core.optprune.nodes_explored": physical.nodes_explored,
        "core.optprune.supported_plans": len(physical.supported_plans),
    }


def compile_ok(
    table: PlanLoadTable, physical: PhysicalPlanResult, cluster: Cluster
) -> bool:
    """The compile is feasible and its placement supports what it claims.

    The placement must place every operator, fit every claimed plan's
    worst-case loads on every node (Def. 3), and score the claimed
    plans' total weight.
    """
    placement = physical.physical_plan
    if placement is None or not physical.feasible:
        return False
    claimed = table.mask_of(physical.supported_plans)
    return (
        placement.covers(table.operator_ids)
        and (claimed & ~placement.support_mask(table, cluster)) == 0
        and math.isclose(physical.score, table.score(claimed))
    )


#: Called right after each timed piece of an operation with its seconds;
#: the untraced run prices the piece there (see ``run.py``).
Meter = Callable[[float], None]


def compile_once(
    scenario: CompileScenario,
    query: Query,
    estimate: StatisticsEstimate,
    meter: Meter | None = None,
    key: str = "compile",
) -> tuple[Outcome, RLDSolution]:
    """One ``RLDOptimizer.solve`` call, timed end to end."""
    optimizer = RLDOptimizer(
        query,
        scenario.cluster,
        config=scenario.config,
        point_optimizer=scenario.point_optimizer(query),
    )
    start = perf_counter()
    solution = optimizer.solve(estimate)
    seconds = perf_counter() - start
    if meter:
        meter(seconds)
    outcome = Outcome(
        seconds=seconds,
        attempted=1,
        failed=0
        if compile_ok(solution.load_table, solution.physical, scenario.cluster)
        else 1,
        fingerprint={
            key: compile_fingerprint(
                solution.partitioning, solution.load_table, solution.physical
            )
        },
        exact=compile_counts(solution.partitioning, solution.physical),
    )
    return outcome, solution


class CompileBench:
    """Repeated compiles of one scenario; set-up builds the first inputs."""

    def __init__(self, scenario: CompileScenario) -> None:
        self.scenario = scenario
        self.setup_outcomes: list[Outcome] = []
        self._inputs: tuple[Query, StatisticsEstimate] | None = scenario.inputs()

    def next_inputs(self) -> tuple[Query, StatisticsEstimate]:
        """The set-up's inputs first, then a fresh pair per compile."""
        inputs, self._inputs = self._inputs, None
        return inputs or self.scenario.inputs()

    def op(self, meter: Meter | None = None) -> Outcome:
        return compile_once(self.scenario, *self.next_inputs(), meter)[0]


#: Simulated seconds per strategy: tens of thousands of batches each.
SIM_SECONDS = 20_000.0

#: Fixed faults: three crashes and two slowdowns, outages of tens of
#: seconds.  A seeded ``random`` schedule is avoided on purpose: its
#: outages grow with the horizon and would dominate the latencies.
#: Each crash starts and ends inside a low-rate half of the stock
#: workload's 120 s rate cycle, where statistics are on the routing
#: grid, so every liveness change costs RLD exactly one table rebuild
#: whatever the seed.
FAULTS = (
    "crash@3060:node=1:for=30,"
    "slowdown@7000:node=2:factor=0.5:for=40,"
    "crash@12060:node=3:for=20,"
    "slowdown@16000:node=0:factor=0.6:for=30,"
    "crash@18060:node=2:for=40"
)

STRATEGIES = ("ROD", "DYN", "RLD")


def strategy_counts(
    name: str, report_migrations: int, strategy: LoadDistributionStrategy
) -> dict[str, float]:
    """Per-strategy work counts both simulate paths report."""
    if isinstance(strategy, RLDStrategy):
        routed = strategy.table_hits + strategy.table_misses
        return {
            "runtime.rld_runtime.table_hits": strategy.table_hits,
            "runtime.rld_runtime.table_misses": strategy.table_misses,
            "runtime.rld_runtime.hit_ratio": strategy.table_hits / routed,
            "runtime.rld_runtime.table_rebuilds": strategy.table_rebuilds,
        }
    if name == "DYN":
        return {"runtime.dyn.migrations": report_migrations}
    return {}


class SimulateBench:
    """``repro simulate`` at CLI defaults over a long horizon with faults.

    Set-up builds the inputs, compiles RLD and builds the three
    strategies, as the CLI does.  Each operation then simulates every
    strategy with fresh strategy objects over the same compiled
    solution, so every operation does identical work.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.query, self.estimate = Q1_CLI.inputs()
        self.cluster = Q1_CLI.cluster
        self.workload = stock_workload(
            self.query, uncertainty_level=3, regime_period=60.0
        )
        self.faults = FaultSchedule.parse(
            FAULTS, n_nodes=self.cluster.n_nodes, duration=SIM_SECONDS, seed=seed
        )
        compiled, self.solution = compile_once(
            Q1_CLI, self.query, self.estimate, key="setup-compile"
        )
        compiled.times["setup.rld_compile_ms"] = 1000 * compiled.seconds
        self.setup_outcomes = [compiled]
        self._strategies: dict[str, LoadDistributionStrategy] | None = (
            self.build_strategies()
        )

    def build_strategies(self) -> dict[str, LoadDistributionStrategy]:
        return build_standard_strategies(
            self.query, self.cluster, estimate=self.estimate, rld_solution=self.solution
        )

    def next_strategies(self) -> dict[str, LoadDistributionStrategy]:
        """The set-up's strategies first, then fresh ones per operation."""
        strategies, self._strategies = self._strategies, None
        return strategies or self.build_strategies()

    def simulator(self, strategy: LoadDistributionStrategy) -> StreamSimulator:
        return StreamSimulator(
            self.query,
            self.cluster,
            strategy,
            self.workload,
            batch_size=100.0,
            seed=self.seed,
            faults=self.faults,
        )

    def op(self, meter: Meter | None = None) -> Outcome:
        return simulate_all(self, self.next_strategies(), meter=meter)


def simulate_all(
    bench: SimulateBench,
    strategies: dict[str, LoadDistributionStrategy],
    wrap: Callable[[LoadDistributionStrategy], LoadDistributionStrategy] | None = None,
    meter: Meter | None = None,
) -> Outcome:
    """Simulate each strategy once; check and fingerprint every report.

    A strategy whose simulation raises, or whose report breaks batch
    conservation, counts as one failed operation; the others still run.
    ``wrap`` (the traced run's proxy) is applied to each strategy
    before it meets the simulator.
    """
    outcome = Outcome(seconds=0.0, attempted=0)
    batches = events = 0
    for name in STRATEGIES:
        strategy = strategies[name]
        simulator = bench.simulator(wrap(strategy) if wrap else strategy)
        outcome.attempted += 1
        start = perf_counter()
        try:
            report = simulator.run(SIM_SECONDS)
        except Exception:  # a failed run is counted, not fatal
            traceback.print_exc()
            outcome.failed += 1
            continue
        finally:
            seconds = perf_counter() - start
            outcome.seconds += seconds
            if meter:
                meter(seconds)
        if not report.conservation_holds() or report.batches_completed == 0:
            outcome.failed += 1
        # The engine counts its own events on the simulator's EventLoop,
        # which StreamSimulator keeps private.
        processed = simulator._loop.processed
        outcome.fingerprint[name] = (report.to_dict(), processed)
        outcome.exact.update(strategy_counts(name, report.migrations, strategy))
        outcome.times[f"engine.run_s.{name.lower()}"] = seconds
        batches += report.batches_injected
        events += processed
        if name == "RLD":
            outcome.exact["rld_avg_latency_ms"] = report.avg_tuple_latency_ms
            outcome.exact["rld_latency_ms_p99"] = report.latency_percentile_ms(99)
            outcome.exact["rld_tuples_out"] = report.tuples_out
    outcome.exact["engine.batches"] = batches
    outcome.exact["engine.events"] = events
    if outcome.seconds > 0:
        outcome.times["engine.events_per_s"] = events / outcome.seconds
        outcome.times["sim_batches_per_s"] = batches / outcome.seconds
    return outcome


#: Workload name → set-up (called with the seed).
BENCHES: dict[str, Callable[[int], CompileBench | SimulateBench]] = {
    "compile-q1": lambda seed: CompileBench(Q1_CLI),
    "compile-join12": lambda seed: CompileBench(JOIN12),
    "simulate-q1": SimulateBench,
}
