"""Tests for tuple batches."""

from __future__ import annotations

import pytest

from repro.engine import Batch
from repro.query import LogicalPlan


class TestBatch:
    def test_size_defaults_to_initial(self):
        batch = Batch(batch_id=0, created_at=0.0, initial_size=100.0)
        assert batch.size == 100.0

    def test_advance_thins_and_steps(self):
        batch = Batch(0, 0.0, 100.0, plan=LogicalPlan((2, 0, 1)))
        assert (batch.stage, batch.size) == (0, 100.0)
        batch.advance(0.5)
        assert (batch.stage, batch.size) == (1, 50.0)
        batch.advance(2.0)  # join fan-out
        assert (batch.stage, batch.size) == (2, 100.0)
        batch.advance(0.1)
        assert (batch.stage, batch.size) == (3, 10.0)
        assert batch.initial_size == 100.0

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            Batch(0, 0.0, 0.0)

    def test_negative_selectivity_rejected(self):
        batch = Batch(0, 0.0, 10.0, plan=LogicalPlan((0,)))
        with pytest.raises(ValueError, match="selectivity"):
            batch.advance(-0.1)

    def test_not_done_without_plan(self):
        batch = Batch(0, 0.0, 10.0)
        assert batch.plan is None
        assert (batch.stage, batch.node) == (0, -1)
