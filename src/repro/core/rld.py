"""End-to-end Robust Load Distribution optimizer (§3).

:class:`RLDOptimizer` is the two-step compile-time pipeline of the
paper's architecture (Figure 5):

1. **Robust logical solution** — build the parameter space from the
   query's statistic estimates and uncertainty levels (Algorithm 1),
   then run ERP (Algorithm 3) to find the covering plan set.
2. **Robust physical plan** — weigh the plans by occurrence
   probability, derive worst-case operator loads, and map everything to
   a single operator→machine assignment with OptPrune (or GreedyPhy).

The product, :class:`RLDSolution`, is everything the runtime needs: the
plan set for the online classifier, and the fixed physical placement
that never migrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from repro.core.exhaustive_phy import exhaustive_physical
from repro.core.greedy_phy import greedy_phy
from repro.core.logical import RobustLogicalSolution
from repro.core.occurrence import NormalOccurrenceModel
from repro.core.optprune import opt_prune
from repro.core.parameter_space import ParameterSpace
from repro.core.partitioning import (
    EarlyTerminatedRobustPartitioning,
    PartitioningResult,
)
from repro.core.physical import Cluster, PhysicalPlanResult, PlanLoadTable
from repro.query.model import Query
from repro.query.optimizer import PointOptimizer, make_optimizer
from repro.query.statistics import StatisticsEstimate
from repro.util.timing import StageTimer

__all__ = ["RLDConfig", "RLDSolution", "RLDOptimizer"]

#: Physical algorithms selectable by name in :class:`RLDConfig`.
#: A MappingProxyType so the registry is read-only process-wide state.
_PHYSICAL_ALGORITHMS = MappingProxyType(
    {
        "optprune": opt_prune,
        "greedy": greedy_phy,
        "exhaustive": exhaustive_physical,
    }
)


@dataclass(frozen=True)
class RLDConfig:
    """Tunables of the RLD compile-time pipeline.

    ``epsilon`` is Def. 1's robustness threshold; ``failure_probability``
    and ``area_bound`` parameterize ERP's Theorem 1 stopping rule;
    ``points_per_level`` sets grid resolution per uncertainty level;
    ``sigma_fraction`` shapes the §5.2 occurrence normal;
    ``physical_algorithm`` picks the §5 mapper; ``jobs`` is the number
    of worker processes pre-solving ERP's region corners (``1`` is the
    serial path; any jobs count yields bitwise-identical solutions).
    """

    epsilon: float = 0.2
    failure_probability: float = 0.25
    area_bound: float = 0.3
    points_per_level: int = 2
    sigma_fraction: float = 0.5
    physical_algorithm: str = "optprune"
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.physical_algorithm not in _PHYSICAL_ALGORITHMS:
            raise ValueError(
                f"unknown physical_algorithm {self.physical_algorithm!r}; "
                f"choose from {sorted(_PHYSICAL_ALGORITHMS)}"
            )


@dataclass(frozen=True)
class RLDSolution:
    """The complete compile-time output of RLD.

    Bundles the parameter space, the robust logical solution (with its
    partitioning diagnostics), the plan load/weight table, and the
    robust physical plan.  This is the single object the runtime
    executor consumes.
    """

    query: Query
    cluster: Cluster
    space: ParameterSpace
    logical: RobustLogicalSolution
    partitioning: PartitioningResult
    load_table: PlanLoadTable
    physical: PhysicalPlanResult
    occurrence: NormalOccurrenceModel = field(repr=False, compare=False, default=None)
    #: Wall-clock seconds per compile stage ("partitioning",
    #: "robustness", "physical"); empty when compiled by an older
    #: pipeline or reloaded from disk.
    stage_seconds: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def feasible(self) -> bool:
        """True when the physical plan supports ≥ 1 robust logical plan."""
        return self.physical.feasible

    @property
    def supported_plans(self) -> tuple:
        """Logical plans the physical plan supports at runtime."""
        return self.physical.supported_plans

    def summary(self) -> str:
        """Human-readable multi-line description of the solution."""
        lines = [
            f"RLD solution for query {self.query.name!r}",
            f"  parameter space : {self.space!r}",
            f"  logical plans   : {len(self.logical)} "
            f"({self.partitioning.optimizer_calls} optimizer calls, "
            f"early-stop={self.partitioning.terminated_early})",
        ]
        for plan in self.logical.plans:
            marker = "*" if plan in set(self.supported_plans) else " "
            lines.append(f"   {marker} {plan.label}")
        pp = self.physical.physical_plan
        lines.append(
            f"  physical plan   : {pp!r} "
            f"(score={self.physical.score:.4f}, "
            f"algorithm={self.physical.algorithm})"
        )
        return "\n".join(lines)


class RLDOptimizer:
    """Two-step robust plan optimizer (Figure 5's "Robust Plan Optimizer").

    Parameters
    ----------
    query:
        The continuous query to optimize.
    cluster:
        Machine resources available to the physical step.
    config:
        Pipeline tunables; defaults follow the paper's common settings
        (ε = 0.2).
    point_optimizer:
        Optional black-box optimizer override (defaults to the exact
        optimizer appropriate for the query's join graph).
    """

    def __init__(
        self,
        query: Query,
        cluster: Cluster,
        *,
        config: RLDConfig | None = None,
        point_optimizer: PointOptimizer | None = None,
    ) -> None:
        self._query = query
        self._cluster = cluster
        self._config = config or RLDConfig()
        self._point_optimizer = point_optimizer or make_optimizer(query)

    @property
    def config(self) -> RLDConfig:
        """The active pipeline configuration."""
        return self._config

    def solve(self, estimate: StatisticsEstimate | None = None) -> RLDSolution:
        """Run both steps and return the full :class:`RLDSolution`.

        ``estimate`` defaults to the query's built-in statistics with
        their declared uncertainty levels; it must mark at least one
        parameter uncertain, otherwise there is no space to be robust
        over.
        """
        config = self._config
        estimate = estimate or self._query.default_estimates()
        space = ParameterSpace.from_estimates(
            estimate, points_per_level=config.points_per_level
        )
        timer = StageTimer()
        with timer.stage("partitioning"):
            partitioner = EarlyTerminatedRobustPartitioning(
                self._query,
                space,
                optimizer=self._point_optimizer,
                epsilon=config.epsilon,
                failure_probability=config.failure_probability,
                area_bound=config.area_bound,
                jobs=config.jobs,
            )
            partitioning = partitioner.run()
            logical = partitioning.solution

        # "Robustness" covers everything between partitioning and the
        # physical search: the plan-label scan, plan weights, worst-case
        # and typical loads (the Figure 13 middle band).
        with timer.stage("robustness"):
            occurrence = NormalOccurrenceModel(
                space, sigma_fraction=config.sigma_fraction
            )
            load_table = PlanLoadTable.from_solution(logical, occurrence=occurrence)
        with timer.stage("physical"):
            physical = _PHYSICAL_ALGORITHMS[config.physical_algorithm](
                load_table, self._cluster
            )
        if config.jobs > 1:
            # Worker busy seconds are concurrent with the wall-clock
            # stages above, so they get their own `workers:` entry
            # instead of being added into a stage's wall time.
            timer.add("workers:partitioning", partitioning.worker_seconds)
        return RLDSolution(
            query=self._query,
            cluster=self._cluster,
            space=space,
            logical=logical,
            partitioning=partitioning,
            load_table=load_table,
            physical=physical,
            occurrence=occurrence,
            stage_seconds=timer.seconds,
        )
