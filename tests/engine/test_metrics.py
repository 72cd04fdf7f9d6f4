"""Tests for the simulation report."""

from __future__ import annotations

import math

import pytest

from repro.engine import SimulationReport


class TestLatency:
    def test_weighted_average(self):
        report = SimulationReport(duration=100.0)
        report.record_batch(0.0, 1.0, input_tuples=100.0, output_tuples=10.0)
        report.record_batch(0.0, 3.0, input_tuples=300.0, output_tuples=30.0)
        # (100·1 + 300·3)/400 = 2.5 s
        assert report.avg_tuple_latency_ms == pytest.approx(2500.0)

    def test_nan_when_nothing_completed(self):
        report = SimulationReport(duration=10.0)
        assert math.isnan(report.avg_tuple_latency_ms)

    def test_completion_before_creation_rejected(self):
        report = SimulationReport(duration=10.0)
        with pytest.raises(ValueError, match="completed before"):
            report.record_batch(5.0, 4.0, 10.0, 1.0)

    def test_percentiles(self):
        report = SimulationReport(duration=100.0)
        for latency in (1.0, 2.0, 3.0, 4.0):
            report.record_batch(0.0, latency, 10.0, 1.0)
        assert report.latency_percentile_ms(0) == pytest.approx(1000.0)
        assert report.latency_percentile_ms(100) == pytest.approx(4000.0)
        assert report.latency_percentile_ms(50) == pytest.approx(2500.0)

    def test_percentile_validation(self):
        report = SimulationReport(duration=10.0)
        with pytest.raises(ValueError):
            report.latency_percentile_ms(101)
        assert math.isnan(report.latency_percentile_ms(50))


class TestTimeline:
    def test_cumulative_output_series(self):
        report = SimulationReport(duration=180.0)
        report.record_batch(0.0, 30.0, input_tuples=100.0, output_tuples=10.0)
        report.record_batch(0.0, 70.0, input_tuples=100.0, output_tuples=20.0)
        report.record_batch(0.0, 130.0, input_tuples=100.0, output_tuples=5.0)
        series = report.produced_timeline(60.0)
        assert series == [(60.0, 10.0), (120.0, 30.0), (180.0, 35.0)]

    def test_input_weighted_series(self):
        report = SimulationReport(duration=120.0)
        report.record_batch(0.0, 30.0, input_tuples=100.0, output_tuples=7.0)
        series = report.produced_timeline(60.0, weights="input")
        assert series == [(60.0, 100.0), (120.0, 100.0)]

    def test_invalid_interval(self):
        report = SimulationReport(duration=10.0)
        with pytest.raises(ValueError):
            report.produced_timeline(0.0)
        with pytest.raises(ValueError):
            report.produced_timeline(10.0, weights="bogus")


class TestOverheads:
    def test_overhead_fraction(self):
        report = SimulationReport(duration=10.0)
        report.processing_seconds = 50.0
        report.overhead_seconds = 1.0
        report.migration_stall_seconds = 0.5
        assert report.overhead_fraction == pytest.approx(0.03)

    def test_overhead_nan_without_processing(self):
        report = SimulationReport(duration=10.0)
        assert math.isnan(report.overhead_fraction)

    def test_utilization(self):
        report = SimulationReport(duration=10.0)
        report.node_busy_seconds = [5.0, 2.0]
        assert report.utilization() == [0.5, 0.2]
