"""Tests for statistics naming, points, and estimates."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.query import StatisticsEstimate, StatPoint, rate_param, selectivity_param
from repro.query.statistics import UNCERTAINTY_UNIT_STEP


class TestParamNames:
    def test_selectivity_param(self):
        assert selectivity_param(3) == "sel:3"

    def test_rate_param_default(self):
        assert rate_param() == "rate"

    def test_rate_param_stream(self):
        assert rate_param("News") == "rate:News"


class TestStatPoint:
    def test_mapping_protocol(self):
        point = StatPoint({"sel:0": 0.4, "rate": 100.0})
        assert point["sel:0"] == 0.4
        assert len(point) == 2
        assert set(point) == {"sel:0", "rate"}

    def test_equality_and_hash(self):
        a = StatPoint({"sel:0": 0.4})
        b = StatPoint({"sel:0": 0.4})
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_against_plain_mapping(self):
        assert StatPoint({"rate": 1.0}) == {"rate": 1.0}

    def test_replacing_uses_dunder_colon_convention(self):
        point = StatPoint({"sel:0": 0.4, "rate": 100.0})
        replaced = point.replacing(sel__0=0.5)
        assert replaced["sel:0"] == 0.5
        assert point["sel:0"] == 0.4  # original untouched

    def test_updated_merges(self):
        point = StatPoint({"rate": 100.0})
        merged = point.updated({"sel:1": 0.7})
        assert merged["sel:1"] == 0.7
        assert merged["rate"] == 100.0

    def test_immutable(self):
        point = StatPoint({"rate": 100.0})
        with pytest.raises(TypeError):
            point._values["rate"] = 5.0  # type: ignore[index]


class TestStatisticsEstimate:
    def test_bounds_follow_algorithm_1(self):
        est = StatisticsEstimate({"sel:1": 0.4, "rate": 100.0}, {"sel:1": 2, "rate": 2})
        lo, hi = est.bounds("sel:1")
        assert lo == pytest.approx(0.32)
        assert hi == pytest.approx(0.48)
        lo, hi = est.bounds("rate")
        assert lo == pytest.approx(80.0)
        assert hi == pytest.approx(120.0)

    def test_exact_parameter_has_degenerate_bounds(self):
        est = StatisticsEstimate({"sel:0": 0.5})
        assert est.bounds("sel:0") == (0.5, 0.5)

    def test_uncertain_parameters_sorted_and_filtered(self):
        est = StatisticsEstimate(
            {"sel:2": 0.5, "sel:0": 0.4, "rate": 10.0},
            {"sel:2": 1, "sel:0": 2, "rate": 0},
        )
        assert est.uncertain_parameters() == ("sel:0", "sel:2")

    def test_unknown_uncertainty_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            StatisticsEstimate({"sel:0": 0.4}, {"sel:9": 1})

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="non-negative int"):
            StatisticsEstimate({"sel:0": 0.4}, {"sel:0": -1})

    @pytest.mark.parametrize("level", [10, 11, 40])
    def test_level_without_a_positive_lower_bound_rejected(self, level):
        # Δ·u >= 1 puts the lower bound e·(1 − Δ·u) at or below zero.
        with pytest.raises(ValueError, match="must be < 10 so the lower bound"):
            StatisticsEstimate({"sel:0": 0.4}, {"sel:0": level})

    def test_widest_level_keeps_a_positive_lower_bound(self):
        est = StatisticsEstimate({"sel:0": 0.4}, {"sel:0": 9})
        assert est.bounds("sel:0")[0] > 0

    def test_non_positive_estimate_rejected(self):
        with pytest.raises(ValueError, match="must be > 0"):
            StatisticsEstimate({"sel:0": 0.0})

    def test_with_uncertainty_returns_updated_copy(self):
        est = StatisticsEstimate({"sel:0": 0.4, "rate": 10.0})
        updated = est.with_uncertainty(sel__0=3, rate=1)
        assert updated.uncertainty["sel:0"] == 3
        assert updated.uncertainty["rate"] == 1
        assert not est.uncertainty

    def test_point_property(self):
        est = StatisticsEstimate({"sel:0": 0.4})
        assert est.point == StatPoint({"sel:0": 0.4})

    @given(
        value=st.floats(min_value=1e-3, max_value=1e6),
        level=st.integers(min_value=0, max_value=9),
    )
    def test_bounds_symmetric_and_ordered(self, value, level):
        est = StatisticsEstimate({"x": value}, {"x": level})
        lo, hi = est.bounds("x")
        assert lo <= value <= hi
        width = UNCERTAINTY_UNIT_STEP * level * value
        assert hi - value == pytest.approx(width, rel=1e-9)
        assert value - lo == pytest.approx(width, rel=1e-9)
