"""The traced run: the benchmark's operations, timed layer by layer.

Spans are taken here, around calls into the program's public
functions, and never inside the program.  A traced compile is
``RLDOptimizer.solve`` split into the stage calls it makes; a traced
simulation hands each strategy to the simulator behind a proxy that
times the simulator's calls into it.  Both must reproduce the untraced
operation's fingerprint and work counts exactly.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from time import perf_counter
from typing import Mapping

from repro.core.occurrence import NormalOccurrenceModel
from repro.core.optprune import opt_prune
from repro.core.parameter_space import GridIndex, ParameterSpace
from repro.core.partitioning import EarlyTerminatedRobustPartitioning
from repro.core.physical import PhysicalPlan, PlanLoadTable
from repro.engine.faults import FaultEvent
from repro.engine.system import LoadDistributionStrategy, RoutingDecision, StreamSimulator
from repro.query.model import Query
from repro.query.optimizer import PointOptimizer
from repro.query.plans import LogicalPlan
from repro.query.statistics import StatisticsEstimate, StatPoint
from repro.runtime.rld_runtime import RLDStrategy

from scenarios import (
    Q1_CLI,
    CompileBench,
    CompileScenario,
    Outcome,
    SimulateBench,
    compile_counts,
    compile_fingerprint,
    compile_ok,
    simulate_all,
)


class Spans:
    """Milliseconds per named span; a span entered again adds up."""

    def __init__(self) -> None:
        self.ms: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.ms[name] = self.ms.get(name, 0.0) + 1000 * (perf_counter() - start)


class TimedOptimizer(PointOptimizer):
    """Point optimizer that times every search of the one it wraps.

    :class:`PointOptimizer` counts the calls; the search itself runs
    through the wrapped optimizer's uncounted :meth:`peek`.
    """

    def __init__(self, inner: PointOptimizer) -> None:
        super().__init__(inner.query)
        self._inner = inner
        self.seconds = 0.0

    def _find_best(self, point: Mapping[str, float]) -> LogicalPlan:
        start = perf_counter()
        try:
            return self._inner.peek(point)
        finally:
            self.seconds += perf_counter() - start


class CountingOccurrence(NormalOccurrenceModel):
    """Occurrence model that counts and times ``cell_probability`` calls."""

    def __init__(self, space: ParameterSpace, *, sigma_fraction: float) -> None:
        super().__init__(space, sigma_fraction=sigma_fraction)
        self.calls = 0
        self.seconds = 0.0

    def cell_probability(self, index: GridIndex) -> float:
        start = perf_counter()
        mass = super().cell_probability(index)
        self.seconds += perf_counter() - start
        self.calls += 1
        return mass


def traced_compile(
    scenario: CompileScenario,
    query: Query,
    estimate: StatisticsEstimate,
    key: str = "compile",
) -> Outcome:
    """``RLDOptimizer.solve`` as its public stage calls, each timed.

    The calls and their order are those ``solve`` makes with one job,
    so the solution must equal ``solve``'s bit for bit.  Spans nest:
    ``plan_weights`` and ``expected_loads`` include the
    ``cell_probability`` calls they make, and ERP includes the
    optimizer.
    """
    config = scenario.config
    spans = Spans()
    start = perf_counter()
    space = ParameterSpace.from_estimates(
        estimate, points_per_level=config.points_per_level
    )
    optimizer = TimedOptimizer(scenario.point_optimizer(query))
    with spans("core.partitioning.erp_ms"):
        partitioning = EarlyTerminatedRobustPartitioning(
            query,
            space,
            optimizer=optimizer,
            epsilon=config.epsilon,
            failure_probability=config.failure_probability,
            area_bound=config.area_bound,
        ).run()
    logical = partitioning.solution
    occurrence = CountingOccurrence(space, sigma_fraction=config.sigma_fraction)
    with spans("core.logical.plan_cells_ms"):
        cells = logical.plan_cells()
    with spans("core.logical.plan_weights_ms"):
        weights = logical.plan_weights(occurrence)
    with spans("core.logical.worst_case_loads_ms"):
        loads = {plan: logical.worst_case_loads(plan) for plan in logical.plans}
    with spans("core.logical.expected_loads_ms"):
        typical = {
            plan: logical.expected_loads(plan, occurrence) for plan in logical.plans
        }
    with spans("core.physical.load_table_ms"):
        table = PlanLoadTable(logical.plans, loads, weights, typical_loads=typical)
    with spans("core.optprune.ms"):
        physical = opt_prune(table, scenario.cluster)
    seconds = perf_counter() - start

    times = spans.ms
    times["query.optimizer.ms"] = 1000 * optimizer.seconds
    times["query.optimizer.us_per_call"] = 1e6 * optimizer.seconds / optimizer.call_count
    times["core.partitioning.self_ms"] = (
        times["core.partitioning.erp_ms"] - times["query.optimizer.ms"]
    )
    times["core.occurrence.cell_probability_ms"] = 1000 * occurrence.seconds
    exact = compile_counts(partitioning, physical)
    exact["query.optimizer.calls"] = optimizer.call_count
    exact["core.occurrence.cell_probability_calls"] = occurrence.calls
    exact["core.logical.cells_scanned"] = sum(len(c) for c in cells.values())
    return Outcome(
        seconds=seconds,
        attempted=1,
        failed=0 if compile_ok(table, physical, scenario.cluster) else 1,
        fingerprint={key: compile_fingerprint(partitioning, table, physical)},
        exact=exact,
        times=times,
    )


class StrategyProbe:
    """Stands in for one strategy and times the simulator's calls into it.

    Each RLD ``route`` call is classed as a table hit, a live miss or a
    table rebuild by the change in the strategy's own counters.
    """

    def __init__(self, inner: LoadDistributionStrategy) -> None:
        self._inner = inner
        self.name = inner.name
        self._rld = inner if isinstance(inner, RLDStrategy) else None
        #: route class → [calls, seconds]
        self.routes: dict[str, list[float]] = {
            "hit": [0, 0.0],
            "miss": [0, 0.0],
            "rebuild": [0, 0.0],
        }
        self.tick_seconds = 0.0
        self.fault_seconds = 0.0

    @property
    def placement(self) -> PhysicalPlan:
        return self._inner.placement

    def route(self, time: float, stats: StatPoint) -> RoutingDecision:
        rld = self._rld
        if rld is None:
            return self._inner.route(time, stats)
        hits, rebuilds = rld.table_hits, rld.table_rebuilds
        start = perf_counter()
        decision = rld.route(time, stats)
        elapsed = perf_counter() - start
        if rld.table_rebuilds != rebuilds:
            kind = "rebuild"
        elif rld.table_hits != hits:
            kind = "hit"
        else:
            kind = "miss"
        self.routes[kind][0] += 1
        self.routes[kind][1] += elapsed
        return decision

    def mean_seconds(self, kind: str) -> float:
        calls, seconds = self.routes[kind]
        return seconds / calls if calls else 0.0

    def on_tick(self, simulator: StreamSimulator, time: float) -> None:
        start = perf_counter()
        try:
            self._inner.on_tick(simulator, time)
        finally:
            self.tick_seconds += perf_counter() - start


class FaultStrategyProbe(StrategyProbe):
    """A probe that also forwards ``on_fault``, for strategies that have it."""

    def on_fault(self, simulator: StreamSimulator, event: FaultEvent) -> None:
        start = perf_counter()
        try:
            self._inner.on_fault(simulator, event)  # type: ignore[attr-defined]
        finally:
            self.fault_seconds += perf_counter() - start


def traced_simulate(bench: SimulateBench) -> Outcome:
    """One 3-strategy simulation with every strategy behind a probe.

    Simulator-level timings (``engine.*``) are taken from the untraced
    operations; this one reports what the probes saw.  Its hit, miss
    and rebuild counts come from the route classification, so the
    untraced strategy counters check it.
    """
    probes: dict[str, StrategyProbe] = {}

    def wrap(strategy: LoadDistributionStrategy) -> LoadDistributionStrategy:
        probe_type = (
            FaultStrategyProbe if hasattr(strategy, "on_fault") else StrategyProbe
        )
        probes[strategy.name] = probe_type(strategy)
        return probes[strategy.name]

    outcome = simulate_all(bench, bench.next_strategies(), wrap)
    rld, dyn = probes["RLD"], probes["DYN"]
    hits, misses, rebuilds = (rld.routes[k][0] for k in ("hit", "miss", "rebuild"))
    outcome.exact["runtime.rld_runtime.table_hits"] = hits + rebuilds
    outcome.exact["runtime.rld_runtime.table_misses"] = misses
    outcome.exact["runtime.rld_runtime.table_rebuilds"] = rebuilds
    outcome.times = {
        "runtime.rld_runtime.hit_us": 1e6 * rld.mean_seconds("hit"),
        "runtime.rld_runtime.miss_us": 1e6 * rld.mean_seconds("miss"),
        "runtime.rld_runtime.rebuild_ms": 1000 * rld.mean_seconds("rebuild"),
        "runtime.rld_runtime.on_fault_ms": 1000 * rld.fault_seconds,
        "runtime.dyn.on_tick_ms": 1000 * dyn.tick_seconds,
    }
    return outcome


def traced_setup(bench: CompileBench | SimulateBench) -> list[Outcome]:
    """Set-up work to trace: the RLD compile ``simulate-q1`` does there."""
    if isinstance(bench, SimulateBench):
        return [traced_compile(Q1_CLI, *Q1_CLI.inputs(), key="setup-compile")]
    return []


def traced_op(bench: CompileBench | SimulateBench) -> Callable[[], Outcome]:
    """The traced twin of ``bench.op``."""
    if isinstance(bench, SimulateBench):
        return lambda: traced_simulate(bench)
    return lambda: traced_compile(bench.scenario, *bench.next_inputs())
