"""Tests for argument-validation helpers."""

from __future__ import annotations

import pytest

from repro.util import (
    ensure_finite,
    ensure_in_range,
    ensure_non_empty,
    ensure_non_negative,
    ensure_positive,
    ensure_probability,
)


class TestEnsurePositive:
    def test_accepts_positive(self):
        assert ensure_positive(0.5, "x") == 0.5

    @pytest.mark.parametrize("bad", [0, -1, -0.001])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="x must be > 0"):
            ensure_positive(bad, "x")


class TestEnsureFinite:
    @pytest.mark.parametrize("ok", [0.0, -2.5, 1e308])
    def test_accepts_finite(self, ok):
        assert ensure_finite(ok, "x") == ok

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nan_and_infinity(self, bad):
        with pytest.raises(ValueError, match="x must be finite"):
            ensure_finite(bad, "x")


class TestEnsureNonNegative:
    @pytest.mark.parametrize("ok", [0.0, 0.5])
    def test_accepts_non_negative(self, ok):
        assert ensure_non_negative(ok, "x") == ok

    @pytest.mark.parametrize("bad", [-0.001, float("nan")])
    def test_rejects_negative_and_nan(self, bad):
        with pytest.raises(ValueError, match="x must be >= 0"):
            ensure_non_negative(bad, "x")


class TestEnsureInRange:
    def test_inclusive_bounds(self):
        assert ensure_in_range(0.0, "x", 0.0, 1.0) == 0.0
        assert ensure_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_exclusive_bounds_reject_edges(self):
        with pytest.raises(ValueError, match=r"\(0.0, 1.0\)"):
            ensure_in_range(0.0, "x", 0.0, 1.0, inclusive=False)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="x must be in"):
            ensure_in_range(1.5, "x", 0.0, 1.0)


class TestEnsureProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_valid(self, ok):
        assert ensure_probability(ok, "p") == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            ensure_probability(bad, "p")


class TestEnsureNonEmpty:
    def test_accepts_non_empty(self):
        assert ensure_non_empty([1], "xs") == [1]

    @pytest.mark.parametrize("empty", [[], (), {}, ""])
    def test_rejects_empty(self, empty):
        with pytest.raises(ValueError, match="xs must not be empty"):
            ensure_non_empty(empty, "xs")
