"""Tests for §4.2 weight assignment and inheritance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ParameterSpace, WeightAssigner
from repro.core.parameter_space import Region
from repro.query import LogicalPlan, PlanCostModel


@pytest.fixture
def setup(three_op_query):
    est = three_op_query.default_estimates({"sel:0": 3, "sel:1": 3})
    space = ParameterSpace.from_estimates(est, points_per_level=3)
    model = PlanCostModel(three_op_query)
    assigner = WeightAssigner(space, model)
    plan_lo = LogicalPlan((2, 1, 0))
    plan_hi = LogicalPlan((2, 0, 1))
    return space, assigner, plan_lo, plan_hi


class TestAssign:
    def test_shapes_match_region(self, setup):
        space, assigner, plan_lo, plan_hi = setup
        region = space.full_region()
        weights = assigner.assign(region, plan_lo, plan_hi)
        for dim, array in enumerate(weights.per_dim):
            assert len(array) == region.hi[dim] - region.lo[dim] + 1

    def test_weights_non_negative_and_finite(self, setup):
        space, assigner, plan_lo, plan_hi = setup
        weights = assigner.assign(space.full_region(), plan_lo, plan_hi)
        for array in weights.per_dim:
            assert np.all(array >= 0)
            assert np.all(np.isfinite(array))

    def test_computation_counter(self, setup):
        space, assigner, plan_lo, plan_hi = setup
        assert assigner.computations == 0
        assigner.assign(space.full_region(), plan_lo, plan_hi)
        assigner.assign(space.full_region(), plan_lo, plan_hi)
        assert assigner.computations == 2


class TestPartitionPoint:
    def test_partition_point_is_splittable(self, setup):
        space, assigner, plan_lo, plan_hi = setup
        region = space.full_region()
        weights = assigner.assign(region, plan_lo, plan_hi)
        point = weights.best_partition_point()
        assert point is not None
        pieces = region.split_at(point)
        assert len(pieces) >= 2

    def test_single_cell_has_no_partition_point(self, setup):
        space, assigner, plan_lo, plan_hi = setup
        cell = Region(space, (1, 1), (1, 1))
        weights = assigner.assign(cell, plan_lo, plan_hi)
        assert weights.best_partition_point() is None

    def test_flat_dimension_stays_at_lo(self, setup):
        space, assigner, plan_lo, plan_hi = setup
        strip = Region(space, (2, 0), (2, 4))
        weights = assigner.assign(strip, plan_lo, plan_hi)
        point = weights.best_partition_point()
        assert point is not None
        assert point[0] == 2


class TestInheritance:
    def test_slice_matches_recomputed_positions(self, setup):
        space, assigner, plan_lo, plan_hi = setup
        parent = space.full_region()
        weights = assigner.assign(parent, plan_lo, plan_hi)
        sub = Region(space, (1, 2), (4, 5))
        sliced = weights.slice_to(sub)
        for dim in range(2):
            offset = sub.lo[dim] - parent.lo[dim]
            length = sub.hi[dim] - sub.lo[dim] + 1
            expected = weights.per_dim[dim][offset : offset + length]
            assert np.allclose(sliced.per_dim[dim], expected)

    def test_skip_counter(self, setup):
        _, assigner, _, _ = setup
        assigner.record_skip()
        assigner.record_skip()
        assert assigner.skips == 2


class TestUniform:
    def test_uniform_peaks_at_midpoint(self, setup):
        space, assigner, _, _ = setup
        region = space.full_region()
        weights = assigner.uniform(region)
        point = weights.best_partition_point()
        assert point is not None
        for dim, p in enumerate(point):
            lo, hi = region.lo[dim], region.hi[dim]
            mid = (lo + hi) / 2
            assert abs(p - mid) <= 1.0
