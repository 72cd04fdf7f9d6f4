"""Tests for the Theorem 1/2 bound utilities and Monte-Carlo checks."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    aging_threshold,
    simulate_uniform_discovery,
    theorem2_miss_probability_bound,
)


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
    def test_large_area_plan_rarely_missed(self):
        check = simulate_uniform_discovery(
            [0.4, 0.3, 0.2, 0.1], target_index=0, trials=1000, seed=1
        )
        assert check.bound_holds
        assert check.empirical_miss_rate <= 0.05

    def test_theorem2_bound_holds_for_small_plans(self):
        # A 6%-area plan: γ = 0.2 at δ = 0.3 → bound e^{-0.6} ≈ 0.55.
        check = simulate_uniform_discovery(
            [0.06, 0.5, 0.3, 0.14], target_index=0, trials=2000, seed=2
        )
        assert check.bound_holds

    def test_theorem1_uncovered_area_within_delta(self):
        # With the default (ε=0.25, δ=0.3) stopping rule, the mean
        # uncovered area must sit well below δ.
        check = simulate_uniform_discovery(
            [0.3, 0.25, 0.2, 0.15, 0.1], trials=2000, seed=3
        )
        assert check.mean_uncovered_area <= 0.3

    def test_deterministic_under_seed(self):
        a = simulate_uniform_discovery([0.5, 0.5], trials=200, seed=9)
        b = simulate_uniform_discovery([0.5, 0.5], trials=200, seed=9)
        assert a.empirical_miss_rate == b.empirical_miss_rate

    def test_validation(self):
        with pytest.raises(ValueError, match="not be empty"):
            simulate_uniform_discovery([])
        with pytest.raises(ValueError, match="> 1"):
            simulate_uniform_discovery([0.9, 0.9])
        with pytest.raises(IndexError):
            simulate_uniform_discovery([0.5], target_index=3)


@settings(max_examples=10, deadline=None)
@given(
    area=st.floats(min_value=0.15, max_value=0.45),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_theorem2_bound_property(area, seed):
    """Property: the empirical miss rate never exceeds the Theorem 2 bound."""
    rest = 1.0 - area
    others = [rest * 0.5, rest * 0.3, rest * 0.2]
    check = simulate_uniform_discovery(
        [area] + others, target_index=0, trials=600, seed=seed
    )
    assert check.bound_holds
