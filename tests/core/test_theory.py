"""Theorems 1–2 (§4.3) on the real RandomSearch over exact q1 spaces.

The theorems' model is RS's own: probe uniformly random grid points and
stop after ``c0 = aging_threshold(ε, δ)`` answers in a row bring no new
plan.  Each test runs RS over fixed seeds on q1 spaces small enough for
an exact plan diagram, reads every plan's area from the diagram, and
checks the bounds with 3σ binomial slack for the finite number of runs.

* Theorem 1: P[the missed plans cover more than δ of the space] ≤ ε.
* Theorem 2: a plan of area γδ is missed with probability at most
  e^{−γ(1 + ε^{-1/2})}.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ParameterSpace,
    RandomSearch,
    aging_threshold,
    compute_plan_diagram,
    theorem2_miss_probability_bound,
)
from repro.query import make_optimizer
from repro.workloads import build_q1

#: Theorem 1's ε: the probability the δ guarantee may fail.
EPSILON = 0.25
SEEDS = range(300)
Q1 = build_q1()


def _within(rate, bound, trials):
    """``rate`` respects ``bound`` up to 3σ binomial slack."""
    sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
    return rate <= bound + 3 * sigma


def _exact_space(uncertainty, points_per_level):
    space = ParameterSpace.from_estimates(
        Q1.default_estimates(uncertainty), points_per_level=points_per_level
    )
    diagram = compute_plan_diagram(space, make_optimizer(Q1))
    cells = np.bincount(diagram.labels, minlength=diagram.cardinality)
    return space, diagram, cells


def _missed(space, diagram, seeds, **search):
    """One row per seeded RS run: which diagram plans it stopped without."""
    optimizer = make_optimizer(Q1)
    rows = []
    for seed in seeds:
        found = RandomSearch(
            Q1, space, optimizer=optimizer, seed=seed, **search
        ).run().solution
        rows.append([plan not in found for plan in diagram.plans])
    return np.array(rows)


def _over_delta_rate(cells, missed, delta):
    """Share of runs whose missed plans cover more than δ of the space."""
    uncovered = missed.astype(np.int64) @ cells
    return float(np.mean(uncovered > delta * cells.sum()))


@pytest.fixture(scope="module")
def spaces():
    """Two exact q1 spaces: 289 cells (11 plans) and 3,125 cells (16)."""
    small = _exact_space({"sel:1": 4, "sel:3": 4}, 4)
    large = _exact_space({op.selectivity_param: 2 for op in Q1.operators}, 2)
    assert (small[0].n_points, small[1].cardinality) == (289, 11)
    assert (large[0].n_points, large[1].cardinality) == (3125, 16)
    return small, large


@pytest.fixture(scope="module")
def runs(spaces):
    """(cells per plan, δ, missed-plan rows) for each checked setting."""
    small, large = spaces
    settings = [(small, 0.3), (small, 0.1), (large, 0.3), (large, 0.05)]
    return [
        (
            cells,
            delta,
            _missed(
                space,
                diagram,
                SEEDS,
                failure_probability=EPSILON,
                area_bound=delta,
            ),
        )
        for (space, diagram, cells), delta in settings
    ]


class TestFormulas:
    def test_theorem1_matches_partitioning_threshold(self):
        # ERP stops on Theorem 1's c0 = (1 + ε^{-1/2}) / δ, rounded up.
        for eps, delta in [(0.25, 0.3), (0.25, 0.4), (0.04, 0.5), (0.5, 1.0)]:
            expected = math.ceil((1.0 + eps**-0.5) / delta)
            assert aging_threshold(eps, delta) == expected

    def test_theorem2_decays_with_gamma(self):
        p1 = theorem2_miss_probability_bound(0.5, 0.25)
        p2 = theorem2_miss_probability_bound(1.0, 0.25)
        p3 = theorem2_miss_probability_bound(2.0, 0.25)
        assert p1 > p2 > p3

    def test_theorem2_known_value(self):
        # γ = 1, ε = 0.25: e^{-(1 + 2)} = e^{-3}.
        assert theorem2_miss_probability_bound(1.0, 0.25) == pytest.approx(
            math.exp(-3.0)
        )

    @pytest.mark.parametrize("gamma,eps", [(0.0, 0.25), (1.0, 0.0), (1.0, 1.0)])
    def test_invalid_arguments(self, gamma, eps):
        with pytest.raises(ValueError):
            theorem2_miss_probability_bound(gamma, eps)


class TestMonteCarlo:
    """The bounds over seeded runs of the real RandomSearch."""

    def test_theorem1_uncovered_area_within_delta(self, runs):
        for cells, delta, missed in runs:
            rate = _over_delta_rate(cells, missed, delta)
            assert _within(rate, EPSILON, len(missed)), (delta, rate)

    def test_large_area_plan_rarely_missed(self, runs):
        # γ ≥ 1: the bound is at most e^{-3} ≈ 0.05.
        for cells, delta, missed in runs:
            area = cells / cells.sum()
            large = np.flatnonzero(area >= delta)
            assert len(large) > 0
            for i in large:
                bound = theorem2_miss_probability_bound(area[i] / delta, EPSILON)
                rate = missed[:, i].mean()
                assert _within(rate, bound, len(missed)), (delta, area[i], rate)

    def test_theorem2_bound_holds_for_small_plans(self, runs):
        for cells, delta, missed in runs:
            area = cells / cells.sum()
            for i in np.flatnonzero(area < delta):
                bound = theorem2_miss_probability_bound(area[i] / delta, EPSILON)
                rate = missed[:, i].mean()
                assert _within(rate, bound, len(missed)), (delta, area[i], rate)

    def test_short_patience_fails_theorem1(self, spaces):
        # Negative control: stopping after 2 idle answers, far below
        # c0 = 10 at δ = 0.3, leaves more than δ uncovered too often.
        space, diagram, cells = spaces[0]
        assert aging_threshold(EPSILON, 0.3) == 10
        missed = _missed(space, diagram, SEEDS, patience=2)
        rate = _over_delta_rate(cells, missed, 0.3)
        assert not _within(rate, EPSILON, len(missed)), rate

    def test_deterministic_under_seed(self, spaces):
        space = spaces[0][0]
        a, b = (RandomSearch(Q1, space, seed=9).run() for _ in range(2))
        assert a.solution.discoveries == b.solution.discoveries
        assert a.optimizer_calls == b.optimizer_calls

    def test_validation(self, spaces):
        space = spaces[0][0]
        with pytest.raises(ValueError, match="failure_probability"):
            aging_threshold(1.0, 0.3)
        with pytest.raises(ValueError, match="area_bound"):
            aging_threshold(0.25, 0.0)
        with pytest.raises(ValueError, match="max_calls"):
            RandomSearch(Q1, space, max_calls=0)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    delta=st.floats(min_value=0.05, max_value=0.45),
    large=st.booleans(),
    first_seed=st.integers(min_value=0, max_value=10_000),
)
def test_theorem2_bound_property(spaces, delta, large, first_seed):
    """Property: no plan is missed more often than Theorem 2 allows."""
    space, diagram, cells = spaces[large]
    missed = _missed(
        space,
        diagram,
        range(first_seed, first_seed + 200),
        failure_probability=EPSILON,
        area_bound=delta,
    )
    area = cells / cells.sum()
    for i, plan_area in enumerate(area):
        bound = theorem2_miss_probability_bound(plan_area / delta, EPSILON)
        rate = missed[:, i].mean()
        assert _within(rate, bound, len(missed)), (delta, plan_area, rate)
