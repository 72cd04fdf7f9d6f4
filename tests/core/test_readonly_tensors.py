"""Regression tests: every cached array the pipeline shares is frozen.

The ``no-cached-tensor-mutation`` lint rule is the static layer of this
invariant; these tests pin the runtime layer — ``setflags(write=False)``
on :meth:`ParameterSpace.grid_matrix`, on :class:`CostTensorCache`'s
cost tensor and tie-break ranks — so any in-place write raises
immediately at the write site instead of corrupting every downstream
consumer (ERP coverage, robustness regions) at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CostTensorCache, ParameterSpace
from repro.core.parameter_space import Dimension
from repro.query import LogicalPlan, PlanCostModel


@pytest.fixture
def space() -> ParameterSpace:
    return ParameterSpace(
        [
            Dimension("sel:0", 0.3, 0.9, 4),
            Dimension("rate", 80.0, 120.0, 3),
        ]
    )


@pytest.fixture
def cache(three_op_query, space) -> CostTensorCache:
    plans = [LogicalPlan((0, 1, 2)), LogicalPlan((2, 1, 0))]
    return CostTensorCache(space, PlanCostModel(three_op_query), plans)


class TestGridMatrixFrozen:
    def test_item_store_raises(self, space):
        grid = space.grid_matrix()
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 123.0

    def test_slice_store_raises(self, space):
        with pytest.raises(ValueError):
            space.grid_matrix()[:, 0] = 0.0

    def test_inplace_op_raises(self, space):
        grid = space.grid_matrix()
        with pytest.raises(ValueError):
            grid += 1.0  # repro-lint: disable=no-cached-tensor-mutation -- this test exists to prove the runtime freeze rejects exactly this write

    def test_views_inherit_freeze(self, space):
        # A view aliases the cache; NumPy propagates non-writeability.
        view = space.grid_matrix()[1:, :]
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 9.0

    def test_copy_is_writable_and_detached(self, space):
        copy = space.grid_matrix().copy()
        original = space.grid_matrix()[0, 0]
        copy[0, 0] = original + 1.0
        assert space.grid_matrix()[0, 0] == original


class TestCostTensorCacheFrozen:
    def test_cost_tensor_store_raises(self, cache):
        tensor = cache.cost_tensor
        assert not tensor.flags.writeable
        with pytest.raises(ValueError):
            tensor[0, 0] = -1.0

    def test_plan_ranks_store_raises(self, cache):
        ranks = cache.plan_ranks
        assert not ranks.flags.writeable
        with pytest.raises(ValueError):
            ranks[0] = 5

    def test_setflags_cannot_reopen_base_object(self, cache):
        # setflags(write=True) on the *same object* succeeds only for
        # arrays that own their data; the invariant we rely on is that
        # accidental writes raise by default.  Verify the default state
        # survives repeated property access (memoization returns the
        # same frozen object, not a fresh writable one).
        first = cache.cost_tensor
        second = cache.cost_tensor
        assert first is second
        assert not second.flags.writeable

    def test_derived_results_are_fresh_arrays(self, cache):
        # min_costs allocates new output (callers may mutate it
        # freely) — it must not hand out a cache view.
        mins = cache.min_costs()
        assert mins.flags.writeable
        mins[0] = -1.0
        assert not np.shares_memory(mins, cache.cost_tensor)
