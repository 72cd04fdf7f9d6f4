"""Tests for the normal occurrence-probability model (§5.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Dimension, NormalOccurrenceModel, ParameterSpace, Region


@pytest.fixture
def unit_space() -> ParameterSpace:
    return ParameterSpace(
        [Dimension("x", 0.0, 1.0, 9), Dimension("y", 0.0, 1.0, 9)]
    )


class TestCellProbability:
    def test_cells_sum_to_region_mass(self, unit_space):
        model = NormalOccurrenceModel(unit_space)
        total = sum(
            model.cell_probability(idx) for idx in unit_space.grid_indices()
        )
        assert total == pytest.approx(
            model.region_probability(unit_space.full_region()), rel=1e-9
        )

    def test_center_cell_heaviest(self, unit_space):
        model = NormalOccurrenceModel(unit_space)
        center = model.cell_probability((4, 4))
        corner = model.cell_probability((0, 0))
        assert center > corner

    def test_symmetry_about_mean(self, unit_space):
        model = NormalOccurrenceModel(unit_space)
        assert model.cell_probability((1, 4)) == pytest.approx(
            model.cell_probability((7, 4)), rel=1e-9
        )

    def test_total_mass_below_one(self, unit_space):
        # The normal's tails extend past the modelled space.
        model = NormalOccurrenceModel(unit_space)
        assert 0.8 < model.total_mass() < 1.0

    def test_region_mass_matches_analytic_normal(self):
        # Example 5's setting: µ=0.5, σ=0.2 on a unit axis.  Indices 3..5
        # own the value interval [0.25, 0.55] (half-cell margins), whose
        # normal mass is Φ(0.25) − Φ(−1.25).
        import math

        space = ParameterSpace([Dimension("x", 0.0, 1.0, 11)])
        model = NormalOccurrenceModel(space, sigma_fraction=0.4)  # σ = 0.4·0.5 = 0.2
        region = Region(space, (3,), (5,))

        def phi(z: float) -> float:
            return 0.5 * (1 + math.erf(z / math.sqrt(2)))

        expected = phi((0.55 - 0.5) / 0.2) - phi((0.25 - 0.5) / 0.2)
        assert model.region_probability(region) == pytest.approx(expected, rel=1e-9)


class TestMasses:
    @pytest.mark.parametrize("means", [None, {"x": 0.3, "r": 140.0}])
    def test_masses_equal_cell_probability_bitwise(self, means):
        # A pinned dimension sits among three varying ones, so the
        # product order matters to the last bit.
        space = ParameterSpace(
            [
                Dimension("x", 0.2, 0.8, 5),
                Dimension("p", 1.5, 1.5, 1),
                Dimension("r", 80.0, 120.0, 4),
                Dimension("y", 0.35, 0.65, 7),
            ]
        )
        model = NormalOccurrenceModel(space, means=means, sigma_fraction=0.4)
        flat = np.arange(space.n_points)[::-1]
        masses = model.masses(flat)
        for k, mass in zip(flat, masses):
            assert mass == model.cell_probability(space.index_of_flat(int(k)))
        assert model.masses(flat[:0]).shape == (0,)

    def test_mass_tables_are_built_once_and_frozen(self, unit_space):
        model = NormalOccurrenceModel(unit_space)
        first = model.masses(np.arange(unit_space.n_points))
        tables = model._cell_mass_tables()
        assert model._cell_mass_tables() is tables
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1.0
        first[:] = 0.0  # the result is the caller's own array
        again = model.masses(np.arange(unit_space.n_points))
        assert np.all(again > 0)


class TestRegionProbability:
    def test_region_mass_factorizes(self, unit_space):
        # Independence: mass(box) · mass(space) == mass(x-strip) · mass(y-strip)
        # (the strips each carry the other dimension's full-space factor).
        model = NormalOccurrenceModel(unit_space)
        box = Region(unit_space, (1, 2), (4, 6))
        x_strip = Region(unit_space, (1, 0), (4, 8))
        y_strip = Region(unit_space, (0, 2), (8, 6))
        assert model.region_probability(box) * model.total_mass() == pytest.approx(
            model.region_probability(x_strip) * model.region_probability(y_strip),
            rel=1e-9,
        )

    def test_custom_means_shift_mass(self, unit_space):
        skewed = NormalOccurrenceModel(unit_space, means={"x": 0.1, "y": 0.1})
        low_corner = Region(unit_space, (0, 0), (3, 3))
        high_corner = Region(unit_space, (5, 5), (8, 8))
        assert skewed.region_probability(low_corner) > skewed.region_probability(
            high_corner
        )

    def test_pinned_dimension_mass_is_one(self):
        space = ParameterSpace(
            [Dimension("x", 0.0, 1.0, 5), Dimension("y", 0.5, 0.5, 1)]
        )
        model = NormalOccurrenceModel(space)
        full = space.full_region()
        only_x = NormalOccurrenceModel(ParameterSpace([Dimension("x", 0.0, 1.0, 5)]))
        assert model.region_probability(full) == pytest.approx(
            only_x.region_probability(only_x.space.full_region()), rel=1e-9
        )

    def test_invalid_sigma_fraction(self, unit_space):
        with pytest.raises(ValueError, match="sigma_fraction"):
            NormalOccurrenceModel(unit_space, sigma_fraction=0.0)
