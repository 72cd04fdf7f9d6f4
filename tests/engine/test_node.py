"""Tests for simulated machines."""

from __future__ import annotations

import pytest

from repro.engine import SimNode


class TestSimNode:
    def test_service_time_scales_with_capacity(self):
        node = SimNode(0, capacity=50.0)
        assert node.service_seconds(100.0) == pytest.approx(2.0)

    def test_idle_job_starts_at_arrival(self):
        node = SimNode(0, capacity=10.0)
        done, service = node.submit(arrival=5.0, work=20.0)
        assert done == pytest.approx(7.0)
        assert service == pytest.approx(2.0)

    def test_busy_jobs_queue_fifo(self):
        node = SimNode(0, capacity=10.0)
        first, _ = node.submit(arrival=0.0, work=50.0)  # busy until 5
        second, _ = node.submit(arrival=1.0, work=10.0)  # starts at 5
        assert first == pytest.approx(5.0)
        assert second == pytest.approx(6.0)

    def test_not_before_delays_start(self):
        node = SimNode(0, capacity=10.0)
        done, _ = node.submit(arrival=0.0, work=10.0, not_before=4.0)
        assert done == pytest.approx(5.0)

    def test_busy_seconds_accumulate(self):
        node = SimNode(0, capacity=10.0)
        node.submit(0.0, 30.0)
        node.submit(0.0, 20.0)
        assert node.busy_seconds == pytest.approx(5.0)
        assert node.jobs_served == 2

    def test_utilization_can_exceed_one_under_backlog(self):
        node = SimNode(0, capacity=10.0)
        node.submit(0.0, 500.0)  # 50s of work
        assert node.utilization(horizon=10.0) == pytest.approx(5.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SimNode(0, capacity=0.0)
        node = SimNode(0, capacity=10.0)
        with pytest.raises(ValueError):
            node.service_seconds(-1.0)
        with pytest.raises(ValueError):
            node.utilization(horizon=0.0)
