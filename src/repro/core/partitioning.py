"""Parameter-space partitioning algorithms (§4.3, Algorithms 2–3).

Four ways to find a robust logical solution, spanning the paper's §6.3
comparison:

* :class:`ExhaustiveSearch` (**ES**) — one optimizer call per grid
  point; the quality baseline and by far the most expensive.
* :class:`RandomSearch` (**RS**) — optimizer calls at uniformly random
  grid points until no new plan appears for a patience window; "our
  partitioning technique assigning equal weights to all points".
* :class:`WeightedRobustPartitioning` (**WRP**, Algorithm 2) —
  recursively split regions at the maximum-weight point (§4.2 weights)
  until every region has a verified ε-robust plan.
* :class:`EarlyTerminatedRobustPartitioning` (**ERP**, Algorithm 3) —
  WRP plus the aging-counter stopping rule of Theorem 1: quit once
  ``age_threshold = (1 + ε_prob^{-1/2}) / δ`` consecutive optimizer
  answers yield no new plan; missed plans then occupy at most a
  ``δ``-fraction of the space with probability ≥ 1 − ε_prob, and any
  plan of area ≥ γδ is missed with probability ≤ e^{−γ(1+ε_prob^{-1/2})}
  (Theorem 2).

ES and RS are one probe-and-age loop (``SpacePartitioner._probe``) fed
grid order or random indices.  RS is the uniform-probe model the
theorems assume; ``tests/core/test_theory.py`` checks both bounds on it.

All algorithms accept an optional ``max_calls`` budget (the x-axis of
Figure 11) and report a discovery log of (calls-so-far, plan) pairs.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.logical import PlanDiscovery, RobustLogicalSolution
from repro.core.parameter_space import ParameterSpace, Region
from repro.core.robustness import RobustnessChecker
from repro.core.weights import RegionWeights, WeightAssigner
from repro.query.cost import PlanCostModel
from repro.query.model import Query
from repro.query.optimizer import PointOptimizer, make_optimizer
from repro.query.plans import LogicalPlan
from repro.util.rng import derive_rng
from repro.util.validation import ensure_in_range, ensure_positive

__all__ = [
    "PartitioningResult",
    "SpacePartitioner",
    "ExhaustiveSearch",
    "RandomSearch",
    "WeightedRobustPartitioning",
    "EarlyTerminatedRobustPartitioning",
    "aging_threshold",
    "theorem2_miss_probability_bound",
]


def aging_threshold(failure_probability: float, area_bound: float) -> int:
    """Theorem 1's stopping threshold ``c0 = (1 + ε^{-1/2}) / δ``.

    ``failure_probability`` is the ε of the theorem (probability the
    guarantee fails) and ``area_bound`` the δ bound on total uncovered
    area.  Rounded up so the probabilistic guarantee is conservative.
    """
    if not 0 < failure_probability < 1:
        raise ValueError(
            f"failure_probability must be in (0, 1), got {failure_probability}"
        )
    if not 0 < area_bound <= 1:
        raise ValueError(f"area_bound must be in (0, 1], got {area_bound}")
    return math.ceil((1.0 + failure_probability**-0.5) / area_bound)


def theorem2_miss_probability_bound(
    gamma: float, failure_probability: float
) -> float:
    """Theorem 2: P[miss a plan of area ≥ γ·δ] ≤ e^{−γ(1 + ε^{-1/2})}.

    Holds when the search stops on :func:`aging_threshold`'s ``c0`` for
    the same ε and δ, for any ``0 < γ ≤ 1/δ``.
    """
    ensure_positive(gamma, "gamma")
    ensure_in_range(
        failure_probability, "failure_probability", 0.0, 1.0, inclusive=False
    )
    return math.exp(-gamma * (1.0 + failure_probability**-0.5))


@dataclass(frozen=True)
class PartitioningResult:
    """Outcome of one partitioning run.

    ``optimizer_calls`` counts only calls made by this run (the paper's
    compile-time expense unit).  ``unresolved_regions`` is how many
    regions were left unverified when ERP's aging counter (or a call
    budget) fired; each is still assigned its best-known plan.
    """

    solution: RobustLogicalSolution
    optimizer_calls: int
    regions_processed: int
    terminated_early: bool
    budget_exhausted: bool
    unresolved_regions: int
    weight_computations: int = 0
    weight_skips: int = 0

    @property
    def plans_found(self) -> int:
        """Number of distinct robust plans in the solution."""
        return len(self.solution)


class _DiscoveryLog:
    """Distinct plans in sighting order, each stamped with the number of
    optimizer calls the run had made when it first saw the plan."""

    def __init__(self, optimizer: PointOptimizer) -> None:
        self._optimizer = optimizer
        self._start = optimizer.call_count
        self._found: dict[LogicalPlan, int] = {}

    @property
    def calls(self) -> int:
        """Optimizer calls charged since the log was opened."""
        return self._optimizer.call_count - self._start

    @property
    def first_plan(self) -> LogicalPlan:
        """The earliest plan sighted."""
        return next(iter(self._found))

    def note(self, plan: LogicalPlan) -> bool:
        """Record a plan sighting; True when it is new to the log."""
        if plan in self._found:
            return False
        self._found[plan] = self.calls
        return True

    def solution(
        self,
        query: Query,
        space: ParameterSpace,
        verified_regions: dict[LogicalPlan, list[Region]] | None = None,
    ) -> RobustLogicalSolution:
        """The logged plans as a solution carrying this discovery log."""
        return RobustLogicalSolution(
            query,
            space,
            list(self._found),
            verified_regions=verified_regions,
            discoveries=[PlanDiscovery(plan, at) for plan, at in self._found.items()],
        )


class SpacePartitioner(ABC):
    """Shared scaffolding: call accounting, discovery log, budgets, and
    the probe-and-age loop of the point-probing searches (ES, RS)."""

    def __init__(
        self,
        query: Query,
        space: ParameterSpace,
        *,
        optimizer: PointOptimizer | None = None,
        epsilon: float = 0.2,
        max_calls: int | None = None,
    ) -> None:
        if max_calls is not None and max_calls < 1:
            raise ValueError(f"max_calls must be >= 1, got {max_calls}")
        self._query = query
        self._space = space
        self._optimizer = optimizer or make_optimizer(query)
        self._epsilon = epsilon
        self._max_calls = max_calls
        self._cost_model = PlanCostModel(query)

    @property
    def epsilon(self) -> float:
        """Robustness threshold ε of Def. 1."""
        return self._epsilon

    @property
    def optimizer(self) -> PointOptimizer:
        """The black-box optimizer being charged for calls."""
        return self._optimizer

    def _budget_left(self, log: _DiscoveryLog) -> bool:
        return self._max_calls is None or log.calls < self._max_calls

    def _probe(
        self, indices: Iterable[tuple[int, ...]], patience: int | None = None
    ) -> PartitioningResult:
        """Optimize at each grid index of ``indices`` in turn.

        Stops once ``patience`` consecutive answers bring no new plan
        (``terminated_early``), when the stream ends, or when the call
        budget runs out (``budget_exhausted``).  Both stops are checked
        after the next index is drawn, so a random stream draws one
        index it never probes.
        """
        log = _DiscoveryLog(self._optimizer)
        misses = 0
        processed = 0
        stopped = exhausted = False
        for index in indices:
            if patience is not None and misses >= patience:
                stopped = True
                break
            if not self._budget_left(log):
                exhausted = True
                break
            processed += 1
            if log.note(self._optimizer.optimize(self._space.point_at(index))):
                misses = 0
            else:
                misses += 1
        return PartitioningResult(
            solution=log.solution(self._query, self._space),
            optimizer_calls=log.calls,
            regions_processed=processed,
            terminated_early=stopped,
            budget_exhausted=exhausted,
            unresolved_regions=0,
        )

    @abstractmethod
    def run(self) -> PartitioningResult:
        """Execute the search and return its result."""


class ExhaustiveSearch(SpacePartitioner):
    """ES: optimize at every grid point (§6.3 baseline).

    Finds every optimal plan in the discretized space, hence full
    coverage — at one optimizer call per grid point.
    """

    def run(self) -> PartitioningResult:
        return self._probe(self._space.grid_indices())


class RandomSearch(SpacePartitioner):
    """RS: uniformly random probe points with an aging stop (§6.2).

    Equivalent to assigning equal weights to all points: it has no idea
    where undiscovered plans live, so it wastes calls re-finding known
    plans — the behaviour Figures 10–11 quantify.  It is also the
    uniform-probe model of Theorems 1–2, which are checked on it.
    """

    def __init__(
        self,
        query: Query,
        space: ParameterSpace,
        *,
        optimizer: PointOptimizer | None = None,
        epsilon: float = 0.2,
        max_calls: int | None = None,
        patience: int | None = None,
        failure_probability: float = 0.25,
        area_bound: float = 0.3,
        seed: int | np.random.Generator | None = 7,
    ) -> None:
        super().__init__(
            query, space, optimizer=optimizer, epsilon=epsilon, max_calls=max_calls
        )
        self._patience = patience or aging_threshold(failure_probability, area_bound)
        self._rng = derive_rng(seed)

    def _random_indices(self) -> Iterator[tuple[int, ...]]:
        shape = self._space.shape
        while True:
            yield tuple(int(self._rng.integers(0, s)) for s in shape)

    def run(self) -> PartitioningResult:
        return self._probe(self._random_indices(), self._patience)


@dataclass(frozen=True)
class _QueueEntry:
    """A pending region with weight/prediction context from its parent."""

    region: Region
    inherited: RegionWeights | None
    predicted_lo: LogicalPlan | None
    predicted_hi: LogicalPlan | None


class WeightedRobustPartitioning(SpacePartitioner):
    """WRP (Algorithm 2): weight-driven recursive partitioning.

    Processes regions largest-first.  Each region costs at most two
    optimizer calls (its corners, shared corners cached); robust
    regions are recorded, non-robust regions split at their maximum
    §4.2-weight point.  Weight arrays are inherited by children when
    the parent's corner-plan predictions were confirmed (the §4.2
    re-assignment skip).
    """

    #: Set False to disable the aging counter (plain WRP).
    early_termination = False

    def __init__(
        self,
        query: Query,
        space: ParameterSpace,
        *,
        optimizer: PointOptimizer | None = None,
        epsilon: float = 0.2,
        max_calls: int | None = None,
        failure_probability: float = 0.25,
        area_bound: float = 0.3,
        use_cost_weights: bool = True,
    ) -> None:
        super().__init__(
            query, space, optimizer=optimizer, epsilon=epsilon, max_calls=max_calls
        )
        self._age_threshold = aging_threshold(failure_probability, area_bound)
        self._use_cost_weights = use_cost_weights

    def run(self) -> PartitioningResult:
        log = _DiscoveryLog(self._optimizer)
        checker = RobustnessChecker(self._optimizer, self._epsilon)
        assigner = WeightAssigner(self._space, self._cost_model)

        verified: dict[LogicalPlan, list[Region]] = {}
        misses = 0
        processed = 0
        stopped_early = False
        exhausted = False

        # Largest regions first; sequence number breaks ties deterministically.
        queue: list[tuple[int, int, _QueueEntry]] = []
        sequence = 0

        def push(entry: _QueueEntry) -> None:
            nonlocal sequence
            heapq.heappush(queue, (-entry.region.n_points, sequence, entry))
            sequence += 1

        push(_QueueEntry(self._space.full_region(), None, None, None))

        while queue:
            if self.early_termination and misses >= self._age_threshold:
                stopped_early = True
                break
            if not self._budget_left(log):
                exhausted = True
                break
            _, _, entry = heapq.heappop(queue)
            region = entry.region
            check = checker.check_region(region)
            processed += 1

            found_new = log.note(check.plan)
            if check.opt_hi != check.plan:
                found_new = log.note(check.opt_hi) or found_new
            if found_new:
                misses = 0
            else:
                misses += 1

            if check.robust or not region.can_split():
                verified.setdefault(check.plan, []).append(region)
                continue

            prediction_confirmed = (
                entry.inherited is not None
                and entry.predicted_lo == check.plan
                and entry.predicted_hi == check.opt_hi
            )
            if prediction_confirmed:
                assigner.record_skip()
                weights = entry.inherited.slice_to(region)
            elif self._use_cost_weights:
                weights = assigner.assign(region, check.plan, check.opt_hi)
            else:
                weights = assigner.uniform(region)

            split_point = weights.best_partition_point()
            if split_point is None:
                verified.setdefault(check.plan, []).append(region)
                continue
            for sub in region.split_at(split_point):
                push(_QueueEntry(sub, weights, check.plan, check.opt_hi))

        # Drain remaining regions without further optimizer calls: assign
        # each its best prediction (parent's corner plan) as a fallback.
        unresolved = 0
        while queue:
            _, _, entry = heapq.heappop(queue)
            unresolved += 1
            fallback = entry.predicted_lo or log.first_plan
            verified.setdefault(fallback, []).append(entry.region)

        return PartitioningResult(
            solution=log.solution(self._query, self._space, verified),
            optimizer_calls=log.calls,
            regions_processed=processed,
            terminated_early=stopped_early,
            budget_exhausted=exhausted,
            unresolved_regions=unresolved,
            weight_computations=assigner.computations,
            weight_skips=assigner.skips,
        )


class EarlyTerminatedRobustPartitioning(WeightedRobustPartitioning):
    """ERP (Algorithm 3): WRP plus Theorem 1's aging-counter stop.

    The counter increments on each region check that yields no plan new
    to the solution and resets otherwise; partitioning stops once it
    reaches ``aging_threshold(failure_probability, area_bound)``.
    Regions still pending are assigned their predicted plan with no
    further optimizer calls — the source of ERP's savings in
    Figures 10 and 12.
    """

    early_termination = True
