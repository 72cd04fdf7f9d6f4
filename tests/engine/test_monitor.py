"""Tests for the statistics monitor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import StatisticsMonitor
from repro.engine import monitor as monitor_module
from repro.query.statistics import rate_param
from repro.util.rng import derive_rng
from repro.workloads import (
    ConstantRate,
    PeriodicRate,
    RegimeSwitchSelectivity,
    Workload,
)


@pytest.fixture
def workload(three_op_query):
    levels = {op.op_id: 2 for op in three_op_query.operators}
    return Workload(
        three_op_query,
        rate_profile=ConstantRate(1.0),
        selectivity_profile=RegimeSwitchSelectivity(levels, period=10.0),
    )


class TestMonitor:
    def test_oracle_monitor_reports_truth(self, three_op_query, workload):
        monitor = StatisticsMonitor(three_op_query, workload, noise=0.0, smoothing=1.0)
        point = monitor.sample(2.5)
        truth = workload.stat_point(2.5)
        for name in truth:
            assert point[name] == pytest.approx(truth[name])

    def test_current_before_sample_raises(self, three_op_query, workload):
        monitor = StatisticsMonitor(three_op_query, workload)
        with pytest.raises(RuntimeError, match="no samples"):
            monitor.current()

    def test_noise_is_seeded(self, three_op_query, workload):
        a = StatisticsMonitor(three_op_query, workload, noise=0.1, seed=4)
        b = StatisticsMonitor(three_op_query, workload, noise=0.1, seed=4)
        assert dict(a.sample(1.0)) == dict(b.sample(1.0))

    def test_smoothing_blends_history(self, three_op_query, workload):
        monitor = StatisticsMonitor(
            three_op_query, workload, noise=0.0, smoothing=0.5
        )
        monitor.sample(0.0)
        first_rate = monitor.current()["rate"]
        # Truth is constant, so smoothing converges to it.
        monitor.sample(1.0)
        assert monitor.current()["rate"] == pytest.approx(first_rate)

    def test_sample_counter(self, three_op_query, workload):
        monitor = StatisticsMonitor(three_op_query, workload)
        monitor.sample(0.0)
        monitor.sample(1.0)
        assert monitor.samples_taken == 2

    def test_covers_all_operators_and_rate(self, three_op_query, workload):
        monitor = StatisticsMonitor(three_op_query, workload, noise=0.0)
        point = monitor.sample(0.0)
        assert set(point) == {"rate", "sel:0", "sel:1", "sel:2"}

    def test_invalid_parameters(self, three_op_query, workload):
        with pytest.raises(ValueError):
            StatisticsMonitor(three_op_query, workload, noise=-0.1)
        with pytest.raises(ValueError):
            StatisticsMonitor(three_op_query, workload, smoothing=0.0)
        with pytest.raises(ValueError):
            StatisticsMonitor(three_op_query, workload, smoothing=1.5)


class ScalarNoiseMonitor:
    """Oracle: the monitor as it sampled before noise came in chunks —
    one scalar ``normal`` draw per observation, in observation order."""

    def __init__(self, query, truth, *, noise, smoothing=0.5, seed=11):
        self._query = query
        self._truth = truth
        self._noise = noise
        self._smoothing = smoothing
        self._rng = derive_rng(seed)
        self._estimates = {}
        self._suspended = False
        self.samples_dropped = 0

    def suspend(self):
        self._suspended = True

    def resume(self):
        self._suspended = False

    def _observe(self, true_value):
        if self._noise == 0:
            return true_value
        factor = 1.0 + self._rng.normal(0.0, self._noise)
        return max(true_value * factor, 1e-9)

    def sample(self, time):
        if self._suspended and self._estimates:
            self.samples_dropped += 1
            return dict(self._estimates)
        observations = {rate_param(): self._observe(self._truth.rate(time))}
        for op in self._query.operators:
            observations[op.selectivity_param] = self._observe(
                self._truth.selectivity(op.op_id, time)
            )
        alpha = self._smoothing
        for name, value in observations.items():
            previous = self._estimates.get(name)
            if previous is None:
                self._estimates[name] = value
            else:
                self._estimates[name] = alpha * value + (1 - alpha) * previous
        return dict(self._estimates)


@pytest.fixture
def fluctuating(four_op_query):
    """Five observations per round, so rounds straddle chunk boundaries."""
    levels = {op.op_id: 3 for op in four_op_query.operators}
    return Workload(
        four_op_query,
        rate_profile=PeriodicRate(high=1.4, low=0.7, period=13.0),
        selectivity_profile=RegimeSwitchSelectivity(levels, period=37.0),
    )


def _replay(monitor, oracle, times, suspended=frozenset()):
    """Sample both at ``times`` (suspending at the given indices) and
    require bitwise-equal estimates after every round."""
    for i, time in enumerate(times):
        for side in (monitor, oracle):
            if i in suspended:
                side.suspend()
            else:
                side.resume()
        assert dict(monitor.sample(time)) == oracle.sample(time), f"round {i}"
    assert monitor.samples_dropped == oracle.samples_dropped


class TestChunkedNoiseParity:
    """The chunked noise stream against the per-observation oracle."""

    def test_run_longer_than_one_chunk(self, four_op_query, fluctuating):
        rounds = 2 * monitor_module.NOISE_CHUNK // 5 + 7
        monitor = StatisticsMonitor(four_op_query, fluctuating, noise=0.08, seed=3)
        oracle = ScalarNoiseMonitor(four_op_query, fluctuating, noise=0.08, seed=3)
        _replay(monitor, oracle, [0.5 * i for i in range(rounds)])

    def test_small_chunks_straddle_rounds(
        self, four_op_query, fluctuating, monkeypatch
    ):
        monkeypatch.setattr(monitor_module, "NOISE_CHUNK", 7)
        monitor = StatisticsMonitor(four_op_query, fluctuating, noise=0.2, seed=9)
        oracle = ScalarNoiseMonitor(four_op_query, fluctuating, noise=0.2, seed=9)
        _replay(monitor, oracle, [1.0 * i for i in range(60)])

    def test_suspended_rounds_draw_nothing(self, four_op_query, fluctuating):
        monitor = StatisticsMonitor(four_op_query, fluctuating, noise=0.1, seed=5)
        oracle = ScalarNoiseMonitor(four_op_query, fluctuating, noise=0.1, seed=5)
        suspended = frozenset(range(10, 25)) | frozenset(range(40, 42))
        _replay(monitor, oracle, [2.0 * i for i in range(60)], suspended)
        assert monitor.samples_dropped == 17
        assert monitor.samples_taken == 60 - 17

    def test_first_round_primed_while_suspended(self, four_op_query, fluctuating):
        monitor = StatisticsMonitor(four_op_query, fluctuating, noise=0.1, seed=6)
        oracle = ScalarNoiseMonitor(four_op_query, fluctuating, noise=0.1, seed=6)
        _replay(monitor, oracle, [3.0 * i for i in range(20)], frozenset(range(5)))
        assert monitor.samples_dropped == 4
        assert monitor.samples_taken == 16

    def test_zero_noise_draws_nothing(self, four_op_query, fluctuating):
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        monitor = StatisticsMonitor(four_op_query, fluctuating, noise=0.0, seed=rng)
        oracle = ScalarNoiseMonitor(four_op_query, fluctuating, noise=0.0)
        _replay(monitor, oracle, [1.5 * i for i in range(30)])
        assert rng.bit_generator.state == before

    def test_current_is_one_point_per_round(self, four_op_query, fluctuating):
        monitor = StatisticsMonitor(four_op_query, fluctuating, seed=2)
        point = monitor.sample(0.0)
        assert monitor.current() is point
        monitor.suspend()
        assert monitor.sample(1.0) is point
        monitor.resume()
        assert monitor.sample(2.0) is not point

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, three_op_query, workload, noise):
        with pytest.raises(ValueError, match="noise must be finite"):
            StatisticsMonitor(three_op_query, workload, noise=noise)
