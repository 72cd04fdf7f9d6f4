"""Theorem 1 & 2 bounds, stated as checkable functions.

ERP's early termination rests on two probabilistic guarantees:

* **Theorem 1** — stop after ``c0 = (1 + ε^{-1/2})/δ`` consecutive
  partitioning steps without a new robust plan, and with probability at
  least ``1 − ε`` the total area of all still-missing robust plans is
  at most a ``δ`` fraction of the space.
* **Theorem 2** — under that stopping rule, an individual plan of area
  at least ``γ·δ`` (0 < γ ≤ 1/δ) is missed with probability at most
  ``e^{−γ(1 + ε^{-1/2})}``: the miss probability decays exponentially
  with the plan's area.

Theorem 1's threshold is :func:`repro.core.partitioning.aging_threshold`,
the one ERP stops on.  This module adds Theorem 2's bound plus a seeded
Monte-Carlo harness that draws plans-as-areas at random and
*empirically verifies* both bounds — the property test in
``tests/core/test_theory.py`` runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.partitioning import aging_threshold
from repro.util.rng import derive_rng
from repro.util.validation import ensure_in_range, ensure_positive

__all__ = [
    "theorem2_miss_probability_bound",
    "MonteCarloBoundCheck",
    "simulate_uniform_discovery",
]


def theorem2_miss_probability_bound(
    gamma: float, failure_probability: float
) -> float:
    """Theorem 2: P[miss a plan of area ≥ γ·δ] ≤ e^{−γ(1 + ε^{-1/2})}."""
    ensure_positive(gamma, "gamma")
    ensure_in_range(
        failure_probability, "failure_probability", 0.0, 1.0, inclusive=False
    )
    return math.exp(-gamma * (1.0 + failure_probability**-0.5))


@dataclass(frozen=True)
class MonteCarloBoundCheck:
    """Result of one empirical bound verification run."""

    trials: int
    #: Fraction of trials in which the target plan was never discovered
    #: before the aging rule stopped the (simulated) search.
    empirical_miss_rate: float
    #: Theorem 2's upper bound for the same setting.
    theorem_bound: float
    #: Mean uncovered area at stopping time across trials.
    mean_uncovered_area: float

    @property
    def bound_holds(self) -> bool:
        """True when the empirical miss rate respects the bound."""
        # Allow 3-sigma binomial slack for finite trials.
        sigma = math.sqrt(
            max(self.theorem_bound * (1 - self.theorem_bound), 1e-12) / self.trials
        )
        return self.empirical_miss_rate <= self.theorem_bound + 3 * sigma


def simulate_uniform_discovery(
    plan_areas: Sequence[float],
    *,
    target_index: int = 0,
    failure_probability: float = 0.25,
    area_bound: float = 0.3,
    trials: int = 2000,
    seed: int | np.random.Generator | None = 97,
) -> MonteCarloBoundCheck:
    """Empirically test Theorems 1–2 under uniform random probing.

    The theorems' probabilistic model: each partitioning step probes a
    uniformly random point of the space, discovering the plan whose
    region contains it; the search stops after ``c0`` consecutive
    probes that discover nothing new.  ``plan_areas`` are the plans'
    area fractions (must sum to ≤ 1; any remainder is "no plan", e.g.
    cells already covered).  Returns the observed miss rate of the
    ``target_index`` plan together with the Theorem 2 bound for its
    area.
    """
    areas = list(plan_areas)
    if not areas:
        raise ValueError("plan_areas must not be empty")
    total = sum(areas)
    if total > 1.0 + 1e-9:
        raise ValueError(f"plan areas sum to {total} > 1")
    if not 0 <= target_index < len(areas):
        raise IndexError(f"target_index {target_index} out of range")
    ensure_positive(trials, "trials")

    threshold = aging_threshold(failure_probability, area_bound)
    rng = derive_rng(seed)
    probabilities = np.array(areas + [max(1.0 - total, 0.0)])
    probabilities = probabilities / probabilities.sum()
    n_outcomes = len(probabilities)

    misses = 0
    uncovered_total = 0.0
    for _ in range(trials):
        found = [False] * len(areas)
        age = 0
        while age < threshold:
            outcome = int(rng.choice(n_outcomes, p=probabilities))
            if outcome < len(areas) and not found[outcome]:
                found[outcome] = True
                age = 0
            else:
                age += 1
        if not found[target_index]:
            misses += 1
        uncovered_total += sum(
            area for area, was_found in zip(areas, found) if not was_found
        )

    gamma = areas[target_index] / area_bound
    bound = theorem2_miss_probability_bound(
        max(gamma, 1e-9), failure_probability
    )
    return MonteCarloBoundCheck(
        trials=trials,
        empirical_miss_rate=misses / trials,
        theorem_bound=bound,
        mean_uncovered_area=uncovered_total / trials,
    )
