"""Tests for the discrete-event loop."""

from __future__ import annotations

import pytest

from repro.engine import EventLoop


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, fired.append, "b")
        loop.schedule(1.0, fired.append, "a")
        loop.schedule(3.0, fired.append, "c")
        loop.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        loop = EventLoop()
        fired = []
        for tag in ("first", "second", "third"):
            loop.schedule(1.0, fired.append, tag)
        loop.run_until(1.0)
        assert fired == ["first", "second", "third"]

    def test_events_past_horizon_stay_pending(self):
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, fired.append, "late")
        loop.run_until(4.0)
        assert fired == []
        assert loop.pending == 1
        loop.run_until(5.0)
        assert fired == ["late"]

    def test_clock_advances_to_horizon(self):
        loop = EventLoop()
        loop.run_until(7.5)
        assert loop.now == 7.5

    def test_scheduling_into_past_rejected(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, fired.append, "on time")
        loop.run_until(2.0)
        with pytest.raises(ValueError, match="before current time"):
            loop.schedule(1.5, fired.append, "late")
        assert fired == ["on time"]

    def test_handlers_can_schedule_more_events(self):
        loop = EventLoop()
        fired = []

        def chain(n: int) -> None:
            fired.append(n)
            if n < 3:
                loop.schedule(loop.now + 1.0, chain, n + 1)

        loop.schedule(0.0, chain, 0)
        loop.run_until(10.0)
        assert fired == [0, 1, 2, 3]
        assert loop.processed == 4
