"""Tests for the correlated occurrence model (future-work extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Dimension, NormalOccurrenceModel, ParameterSpace
from repro.core.correlation import CorrelatedOccurrenceModel
from repro.core.parameter_space import Region


@pytest.fixture
def unit_space() -> ParameterSpace:
    return ParameterSpace(
        [Dimension("x", 0.0, 1.0, 9), Dimension("y", 0.0, 1.0, 9)]
    )


class TestAgainstIndependentModel:
    def test_zero_correlation_matches_independent_model(self, unit_space):
        independent = NormalOccurrenceModel(unit_space)
        correlated = CorrelatedOccurrenceModel(unit_space)  # identity corr
        for index in [(0, 0), (4, 4), (2, 7), (8, 1)]:
            assert correlated.cell_probability(index) == pytest.approx(
                independent.cell_probability(index), rel=1e-6, abs=1e-9
            )

    def test_total_mass_matches_independent_at_zero_rho(self, unit_space):
        independent = NormalOccurrenceModel(unit_space)
        correlated = CorrelatedOccurrenceModel(unit_space)
        assert correlated.total_mass() == pytest.approx(
            independent.total_mass(), rel=1e-6
        )


class TestCorrelationShapesMass:
    def test_positive_rho_concentrates_on_diagonal(self, unit_space):
        model = CorrelatedOccurrenceModel(
            unit_space, correlation=[[1.0, 0.9], [0.9, 1.0]]
        )
        independent = CorrelatedOccurrenceModel(unit_space)
        diagonal = model.cell_probability((6, 6))
        anti = model.cell_probability((6, 2))
        assert diagonal > anti
        # And more sharply than under independence.
        assert diagonal / anti > (
            independent.cell_probability((6, 6))
            / independent.cell_probability((6, 2))
        )

    def test_negative_rho_concentrates_on_anti_diagonal(self, unit_space):
        model = CorrelatedOccurrenceModel.anti_synchronized(unit_space, rho=-0.9)
        assert model.cell_probability((6, 2)) > model.cell_probability((6, 6))

    def test_region_mass_consistent_with_cells(self, unit_space):
        model = CorrelatedOccurrenceModel(
            unit_space, correlation=[[1.0, -0.5], [-0.5, 1.0]]
        )
        region = Region(unit_space, (2, 3), (4, 6))
        summed = sum(model.cell_probability(idx) for idx in region.indices())
        assert model.region_probability(region) == pytest.approx(summed, rel=1e-5)

    def test_cells_sum_to_total(self, unit_space):
        model = CorrelatedOccurrenceModel.anti_synchronized(unit_space, rho=-0.6)
        total = sum(
            model.cell_probability(idx) for idx in unit_space.grid_indices()
        )
        assert total == pytest.approx(model.total_mass(), rel=1e-5)


class TestMasses:
    def test_masses_match_cell_probability(self):
        pinned = Dimension("p", 2.0, 2.0, 1)
        spaces = [
            ParameterSpace([Dimension("x", 0.0, 1.0, 5), pinned,
                            Dimension("y", 0.0, 1.0, 4)]),
            ParameterSpace([pinned, Dimension("x", 0.0, 1.0, 6)]),
        ]
        for space, correlation in zip(spaces, ([[1.0, -0.7], [-0.7, 1.0]], None)):
            model = CorrelatedOccurrenceModel(space, correlation=correlation)
            flat = np.arange(space.n_points)
            masses = model.masses(np.unravel_index(flat, space.shape))
            for k in flat:
                expected = model.cell_probability(space.index_of_flat(int(k)))
                assert masses[k] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_three_correlated_dims_are_reproducible(self):
        # With three or more correlated dimensions SciPy's CDF is a
        # randomized quasi-Monte Carlo estimate; the model seeds it.
        def build() -> CorrelatedOccurrenceModel:
            space = ParameterSpace(
                [
                    Dimension("x", 0.0, 1.0, 4),
                    Dimension("y", 0.0, 1.0, 3),
                    Dimension("z", 0.0, 1.0, 3),
                ]
            )
            correlation = [[1.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 1.0]]
            return CorrelatedOccurrenceModel(space, correlation=correlation)

        model = build()
        grid = np.unravel_index(np.arange(model.space.n_points), model.space.shape)
        first = model.masses(grid)
        assert np.array_equal(model.masses(grid), first)
        assert np.array_equal(model.masses(grid), first)
        assert np.array_equal(build().masses(grid), first)


def _flat_space() -> ParameterSpace:
    return ParameterSpace(
        [Dimension("x", 0.0, 1.0, 5), Dimension("y", 0.0, 2.0, 4)]
    )


def _pinned_space() -> ParameterSpace:
    return ParameterSpace(
        [
            Dimension("x", 0.0, 1.0, 4),
            Dimension("p", 2.0, 2.0, 1),
            Dimension("y", 0.0, 1.0, 3),
            Dimension("z", 0.5, 1.5, 3),
        ]
    )


class TestPinnedMasses:
    """Exact masses, to the last bit.

    Two correlated dimensions take SciPy's deterministic CDF, three take
    its seeded quasi-Monte Carlo one; the second space also has a pinned
    dimension the model must skip.  A change to how a box's bounds or
    its inclusion–exclusion sum are formed moves these hex values even
    where an approximate comparison would not notice.
    """

    CASES = [
        (_flat_space, -0.3,
         {(0, 0): "0x1.7b91941b50600p-10",
          (2, 1): "0x1.47dbea09ef936p-3",
          (4, 3): "0x1.7b91941b50600p-10"},
         {((0, 0), (4, 3)): "0x1.f5e72271fecc4p-1",
          ((1, 1), (3, 2)): "0x1.6e9c6fcd241f4p-1"}),
        (_flat_space, 0.5,
         {(0, 0): "0x1.26897284ae3a0p-6",
          (2, 1): "0x1.55a78cc8f1ea0p-3",
          (4, 3): "0x1.26897284ae3a0p-6"},
         {((0, 0), (4, 3)): "0x1.f634fe852ffcdp-1",
          ((1, 1), (3, 2)): "0x1.75c29ce2b9b07p-1"}),
        (_pinned_space, -0.3,
         {(0, 0, 0, 0): "0x1.544267d1b91f0p-16",
          (1, 0, 1, 2): "0x1.c1462e611f0c0p-5",
          (3, 0, 2, 1): "0x1.be6fdf231de00p-10"},
         {((0, 0, 0, 0), (3, 0, 2, 2)): "0x1.f9724ecbf17cbp-1",
          ((1, 0, 0, 1), (2, 0, 1, 2)): "0x1.35dcf5640aba0p-1"}),
        (_pinned_space, 0.5,
         {(0, 0, 0, 0): "0x1.57fad7a242c1ap-6",
          (1, 0, 1, 2): "0x1.67556bc51c010p-6",
          (3, 0, 2, 1): "0x1.0a399e72b2ba0p-6"},
         {((0, 0, 0, 0), (3, 0, 2, 2)): "0x1.f9b4a02e71ff4p-1",
          ((1, 0, 0, 1), (2, 0, 1, 2)): "0x1.2d908cfc62684p-1"}),
    ]

    @pytest.mark.parametrize(
        "make_space, rho, cells, regions",
        CASES,
        ids=["flat-neg", "flat-pos", "pinned-neg", "pinned-pos"],
    )
    def test_masses_are_pinned(self, make_space, rho, cells, regions):
        space = make_space()
        model = CorrelatedOccurrenceModel.anti_synchronized(space, rho=rho)
        got_cells = {
            index: model.cell_probability(index).hex() for index in cells
        }
        got_regions = {
            bounds: model.region_probability(Region(space, *bounds)).hex()
            for bounds in regions
        }
        assert got_cells == cells
        assert got_regions == regions


class TestPlanWeightsIntegration:
    def test_anti_synchronized_weights_shift_toward_regime_plans(self):
        """Under regime-style correlation the weights re-rank plans."""
        from repro.core import EarlyTerminatedRobustPartitioning
        from repro.workloads import build_q1

        query = build_q1()
        estimate = query.default_estimates({"sel:1": 4, "sel:3": 4})
        space = ParameterSpace.from_estimates(estimate, points_per_level=2)
        solution = EarlyTerminatedRobustPartitioning(
            query, space, epsilon=0.1
        ).run().solution
        independent = solution.plan_weights(NormalOccurrenceModel(space))
        correlated = solution.plan_weights(
            CorrelatedOccurrenceModel.anti_synchronized(space, rho=-0.9)
        )
        # Same plans, different masses — the distribution genuinely moved.
        assert set(independent) == set(correlated)
        shifts = [
            abs(correlated[p] - independent[p]) for p in independent
        ]
        assert max(shifts) > 0.01


class TestValidation:
    def test_wrong_shape_rejected(self, unit_space):
        with pytest.raises(ValueError, match="2x2"):
            CorrelatedOccurrenceModel(unit_space, correlation=[[1.0]])

    def test_asymmetric_rejected(self, unit_space):
        with pytest.raises(ValueError, match="symmetric"):
            CorrelatedOccurrenceModel(
                unit_space, correlation=[[1.0, 0.5], [0.2, 1.0]]
            )

    def test_bad_diagonal_rejected(self, unit_space):
        with pytest.raises(ValueError, match="diagonal"):
            CorrelatedOccurrenceModel(
                unit_space, correlation=[[2.0, 0.0], [0.0, 1.0]]
            )

    def test_non_psd_rejected(self):
        space = ParameterSpace(
            [Dimension(n, 0.0, 1.0, 5) for n in ("x", "y", "z")]
        )
        with pytest.raises(ValueError, match="equicorrelation"):
            CorrelatedOccurrenceModel.anti_synchronized(space, rho=-0.9)

    def test_pinned_dimensions_excluded(self):
        space = ParameterSpace(
            [Dimension("x", 0.0, 1.0, 5), Dimension("y", 0.5, 0.5, 1)]
        )
        model = CorrelatedOccurrenceModel(space)  # 1 varying dim: ok
        assert model.total_mass() > 0.9

    @pytest.mark.parametrize("sigma_fraction", [float("nan"), float("inf")])
    def test_non_finite_sigma_fraction_rejected(self, unit_space, sigma_fraction):
        # inf used to reach SciPy's "array must not contain infs or NaNs".
        with pytest.raises(ValueError, match="sigma_fraction must be finite"):
            CorrelatedOccurrenceModel(unit_space, sigma_fraction=sigma_fraction)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf")])
    def test_non_finite_mean_rejected(self, unit_space, mean):
        # A NaN mean used to give a total mass of 0.0, silently.
        with pytest.raises(ValueError, match="y mean must be finite"):
            CorrelatedOccurrenceModel(unit_space, means={"y": mean})

    def test_mean_of_unknown_parameter_rejected(self, unit_space):
        with pytest.raises(ValueError, match=r"outside the space: \['z'\]"):
            CorrelatedOccurrenceModel(unit_space, means={"z": 0.5})
