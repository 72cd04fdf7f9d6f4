"""Tests for the parameter space, dimensions, and regions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dimension, ParameterSpace, Region
from repro.query import StatisticsEstimate


class TestDimension:
    def test_values_span_bounds(self):
        dim = Dimension("x", 0.0, 1.0, 5)
        assert dim.value(0) == 0.0
        assert dim.value(4) == 1.0
        assert dim.cell_width == pytest.approx(0.25)

    def test_pinned_dimension(self):
        dim = Dimension("x", 0.5, 0.5, 1)
        assert dim.value(0) == 0.5
        assert dim.cell_width == 0.0
        assert dim.nearest_index(99.0) == 0

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            Dimension("x", 0.0, 1.0, 3).value(3)

    def test_nearest_index_rounds_and_clamps(self):
        dim = Dimension("x", 0.0, 1.0, 5)
        assert dim.nearest_index(0.13) == 1  # nearer to 0.25's neighbour 0.25? -> 0.13/0.25=0.52 -> 1
        assert dim.nearest_index(-5.0) == 0
        assert dim.nearest_index(5.0) == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "", "lo": 0.0, "hi": 1.0, "steps": 2},
            {"name": "x", "lo": 1.0, "hi": 0.0, "steps": 2},
            {"name": "x", "lo": 0.0, "hi": 1.0, "steps": 0},
            {"name": "x", "lo": 0.0, "hi": 1.0, "steps": 1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Dimension(**kwargs)

    def test_nearest_index_at_exact_cell_boundaries(self):
        # Regression: a value exactly halfway between two grid values must
        # round the same way in the scalar (Python round, half-to-even) and
        # vectorized (np.rint, also half-to-even) paths, or the routing
        # table and live classifier could snap to different cells.
        dim = Dimension("x", 0.0, 1.0, 5)  # cells at 0, .25, .5, .75, 1
        assert dim.nearest_index(0.125) == 0  # midpoint 0/1 -> even 0
        assert dim.nearest_index(0.375) == 2  # midpoint 1/2 -> even 2
        assert dim.nearest_index(0.625) == 2  # midpoint 2/3 -> even 2
        assert dim.nearest_index(0.875) == 4  # midpoint 3/4 -> even 4

    def test_values_array_matches_value(self):
        dim = Dimension("x", 0.3, 0.9, 4)
        arr = dim.values_array()
        assert arr.shape == (4,)
        for i in range(dim.steps):
            assert arr[i] == dim.value(i)


class TestFromEstimates:
    def test_algorithm_1_bounds_and_level_scaled_steps(self):
        est = StatisticsEstimate(
            {"sel:0": 0.4, "rate": 100.0}, {"sel:0": 2, "rate": 3}
        )
        space = ParameterSpace.from_estimates(est, points_per_level=2)
        by_name = {d.name: d for d in space.dimensions}
        assert by_name["sel:0"].lo == pytest.approx(0.32)
        assert by_name["sel:0"].hi == pytest.approx(0.48)
        assert by_name["sel:0"].steps == 5  # 2·2 + 1
        assert by_name["rate"].steps == 7  # 2·3 + 1

    def test_exact_parameters_excluded(self):
        est = StatisticsEstimate({"a": 1.0, "b": 2.0}, {"a": 1, "b": 0})
        space = ParameterSpace.from_estimates(est)
        assert space.names == ("a",)

    def test_no_uncertain_parameters_rejected(self):
        est = StatisticsEstimate({"a": 1.0})
        with pytest.raises(ValueError, match="uncertain parameters"):
            ParameterSpace.from_estimates(est)


class TestParameterSpace:
    def test_grid_iteration_counts(self, space_2d):
        indices = list(space_2d.grid_indices())
        assert len(indices) == space_2d.n_points
        assert len(set(indices)) == len(indices)

    def test_point_at_round_trip(self, space_2d):
        for index in space_2d.grid_indices():
            point = space_2d.point_at(index)
            flat = space_2d.nearest_flat_index(point)
            assert space_2d.index_of_flat(flat) == index

    def test_point_at_wrong_arity(self, space_2d):
        with pytest.raises(ValueError, match="components"):
            space_2d.point_at((0,))

    def test_duplicate_dimension_names_rejected(self):
        dims = [Dimension("x", 0, 1, 2), Dimension("x", 0, 1, 2)]
        with pytest.raises(ValueError, match="duplicate"):
            ParameterSpace(dims)

    def test_full_region_spans_space(self, space_2d):
        region = space_2d.full_region()
        assert region.n_points == space_2d.n_points
        assert region.area_fraction == 1.0

    def test_flat_index_follows_grid_order(self, space_2d):
        for flat, index in enumerate(space_2d.grid_indices()):
            assert space_2d.index_of_flat(flat) == index
        with pytest.raises(IndexError):
            space_2d.index_of_flat(space_2d.n_points)

    def test_grid_matrix_rows_match_point_at(self, space_2d):
        # The whole grid's value matrix: one row per flat position.
        matrix = space_2d.points_matrix(np.arange(space_2d.n_points))
        assert matrix.shape == (space_2d.n_points, space_2d.n_dims)
        for flat, index in enumerate(space_2d.grid_indices()):
            point = space_2d.point_at(index)
            for col, name in enumerate(space_2d.names):
                assert matrix[flat, col] == point[name]

    def test_points_matrix_subset(self, space_2d):
        flats = np.arange(space_2d.n_points)[::-3]
        matrix = space_2d.points_matrix(flats)
        full = space_2d.points_matrix(np.arange(space_2d.n_points))
        assert np.array_equal(matrix, full[flats])
        assert space_2d.points_matrix(flats[:0]).shape == (0, space_2d.n_dims)

    def test_points_matrix_reads_frozen_axis_values(self, space_2d):
        for values, dim in zip(space_2d._axis_values, space_2d.dimensions):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.0
            assert np.array_equal(values, dim.values_array())
        flats = np.arange(space_2d.n_points)
        matrix = space_2d.points_matrix(flats)
        assert matrix.flags.writeable
        matrix[:] = -1.0  # the caller's own array: the grid is unchanged
        assert np.array_equal(
            space_2d.points_matrix(flats),
            np.column_stack(
                [d.values_array()[i] for d, i in zip(
                    space_2d.dimensions,
                    np.unravel_index(flats, space_2d.shape),
                )]
            ),
        )

    def test_nearest_flat_index_on_grid(self, space_2d):
        for flat, index in enumerate(space_2d.grid_indices()):
            assert space_2d.nearest_flat_index(space_2d.point_at(index)) == flat

    def test_nearest_flat_index_off_grid(self):
        space = ParameterSpace(
            [Dimension("x", 0.0, 1.0, 5), Dimension("p", 0.5, 0.5, 1)]
        )
        # Missing dimension -> off-grid.
        assert space.nearest_flat_index({"x": 0.5}) is None
        # Beyond half a cell outside the box -> off-grid.
        assert space.nearest_flat_index({"x": 1.2, "p": 0.5}) is None
        assert space.nearest_flat_index({"x": -0.2, "p": 0.5}) is None
        # Within half a cell of the edge -> snapped in.
        assert space.nearest_flat_index({"x": 1.1, "p": 0.5}) == 4
        # Pinned dimension tolerates only tiny relative drift.
        assert space.nearest_flat_index({"x": 0.0, "p": 0.5 + 1e-12}) == 0
        assert space.nearest_flat_index({"x": 0.0, "p": 0.51}) is None


class TestRegion:
    def test_corners(self, space_2d):
        region = space_2d.full_region()
        lo, hi = region.pnt_lo, region.pnt_hi
        for dim in space_2d.dimensions:
            assert lo[dim.name] == pytest.approx(dim.lo)
            assert hi[dim.name] == pytest.approx(dim.hi)

    def test_contains(self, space_2d):
        region = Region(space_2d, (1, 1), (3, 4))
        assert region.contains((2, 3))
        assert not region.contains((0, 2))

    def test_is_cell(self, space_2d):
        assert Region(space_2d, (2, 2), (2, 2)).is_cell
        assert not Region(space_2d, (2, 2), (2, 3)).is_cell

    def test_invalid_bounds_rejected(self, space_2d):
        with pytest.raises(ValueError, match="invalid bounds"):
            Region(space_2d, (3, 0), (1, 0))
        with pytest.raises(ValueError, match="invalid bounds"):
            Region(space_2d, (0, 0), (0, 99))

    def test_split_tiles_region_exactly(self, space_2d):
        region = space_2d.full_region()
        pieces = region.split_at((2, 3))
        assert len(pieces) == 4
        all_indices = [idx for piece in pieces for idx in piece.indices()]
        assert sorted(all_indices) == sorted(region.indices())
        assert len(set(all_indices)) == len(all_indices)

    def test_split_at_edge_reduces_pieces(self, space_2d):
        region = space_2d.full_region()
        hi = region.hi
        # Splitting at hi on dim 1 only divides dim 0.
        pieces = region.split_at((2, hi[1]))
        assert len(pieces) == 2

    def test_split_outside_region_rejected(self, space_2d):
        region = Region(space_2d, (0, 0), (2, 2))
        with pytest.raises(ValueError, match="outside region"):
            region.split_at((5, 5))

    def test_non_dividing_split_rejected(self, space_2d):
        cell = Region(space_2d, (1, 1), (1, 1))
        with pytest.raises(ValueError, match="does not divide"):
            cell.split_at((1, 1))

    def test_can_split(self, space_2d):
        assert space_2d.full_region().can_split()
        assert not Region(space_2d, (0, 0), (0, 0)).can_split()


@settings(max_examples=50, deadline=None)
@given(
    shape=st.tuples(
        st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6)
    ),
    data=st.data(),
)
def test_split_partition_property(shape, data):
    """Property: any valid split tiles the region (disjoint + complete)."""
    dims = [Dimension(f"d{i}", 0.0, 1.0, steps) for i, steps in enumerate(shape)]
    space = ParameterSpace(dims)
    region = space.full_region()
    point = tuple(
        data.draw(st.integers(min_value=0, max_value=s - 2), label=f"p{i}")
        for i, s in enumerate(shape)
    )
    pieces = region.split_at(point)
    everything = [idx for piece in pieces for idx in piece.indices()]
    assert sorted(everything) == sorted(region.indices())
    assert sum(p.n_points for p in pieces) == region.n_points
