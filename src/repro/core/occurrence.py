"""Probability-of-occurrence model over the parameter space (§5.2).

The physical plan generator weighs each robust logical plan by how
likely the runtime statistics are to fall inside its robust region.
Following the paper (Examples 4 and 5) each dimension is an independent
normal: the mean is the point estimate (the centre of the dimension)
and the standard deviation reflects the uncertainty level.  The mass of
a grid cell is the product over dimensions of the normal probability of
the cell's value interval — ``Pr(area) = Pr_x(area) · Pr_y(area)``.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.core.parameter_space import GridIndex, ParameterSpace, Region
from repro.util.types import FloatArray, IntArray

__all__ = ["NormalOccurrenceModel"]

#: Fraction of a dimension's half-width used as one standard deviation.
#: 0.5 puts the space edge at 2σ, leaving ~4.6% of mass outside the
#: modelled space (consistent with "fluctuations are known a priori").
DEFAULT_SIGMA_FRACTION = 0.5


def _standard_normal_cdf(z: float) -> float:
    """Φ(z) via the error function (no SciPy dependency)."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


class NormalOccurrenceModel:
    """Independent per-dimension normal occurrence probabilities.

    Parameters
    ----------
    space:
        The parameter space whose grid cells are weighted.
    means:
        Optional per-dimension means (parameter name → value); defaults
        to each dimension's midpoint, i.e. the original point estimate.
    sigma_fraction:
        Standard deviation as a fraction of the dimension half-width.
    """

    def __init__(
        self,
        space: ParameterSpace,
        *,
        means: Mapping[str, float] | None = None,
        sigma_fraction: float = DEFAULT_SIGMA_FRACTION,
    ) -> None:
        if sigma_fraction <= 0:
            raise ValueError(f"sigma_fraction must be > 0, got {sigma_fraction}")
        self._space = space
        self._means: list[float] = []
        self._sigmas: list[float] = []
        for dim in space.dimensions:
            mean = float(means[dim.name]) if means and dim.name in means else (
                0.5 * (dim.lo + dim.hi)
            )
            half_width = 0.5 * dim.width
            if half_width <= 0.0:
                # Pinned dimension: all mass on its single value.
                sigma = 0.0
            else:
                sigma = sigma_fraction * half_width
            self._means.append(mean)
            self._sigmas.append(sigma)
        self._mass_tables: tuple[FloatArray, ...] | None = None

    @property
    def space(self) -> ParameterSpace:
        """The parameter space this model covers."""
        return self._space

    def _cell_interval(self, dim: int, index: int) -> tuple[float, float]:
        """Value interval that grid index ``index`` represents on ``dim``.

        Each grid point owns the half-open strip of values nearer to it
        than to its neighbours; edge cells extend half a cell outward so
        the intervals tile the dimension (plus a half-cell margin).
        """
        dimension = self._space.dimensions[dim]
        value = dimension.value(index)
        half = 0.5 * dimension.cell_width
        return value - half, value + half

    def _dim_probability(self, dim: int, lo_index: int, hi_index: int) -> float:
        """Normal mass of grid indices ``[lo_index..hi_index]`` on ``dim``."""
        sigma = self._sigmas[dim]
        if sigma <= 0.0:
            return 1.0
        mean = self._means[dim]
        lo_value, _ = self._cell_interval(dim, lo_index)
        _, hi_value = self._cell_interval(dim, hi_index)
        return _standard_normal_cdf((hi_value - mean) / sigma) - _standard_normal_cdf(
            (lo_value - mean) / sigma
        )

    def cell_probability(self, index: GridIndex) -> float:
        """Probability mass of the single grid cell at ``index``."""
        mass = 1.0
        for dim, i in enumerate(index):
            mass *= self._dim_probability(dim, i, i)
        return mass

    def _cell_mass_tables(self) -> tuple[FloatArray, ...]:
        """Per dimension, the mass of each grid index; built once, frozen."""
        if self._mass_tables is None:
            tables = []
            for dim, dimension in enumerate(self._space.dimensions):
                table = np.array(
                    [self._dim_probability(dim, i, i) for i in range(dimension.steps)]
                )
                table.setflags(write=False)
                tables.append(table)
            self._mass_tables = tuple(tables)
        return self._mass_tables

    def masses(self, flat: IntArray) -> FloatArray:
        """:meth:`cell_probability` at every row-major flat grid position.

        Each dimension's cell masses form one small table, and a cell's
        mass is the product of its entries, taken in dimension order as
        :meth:`cell_probability` takes them, so the two agree bitwise.
        """
        indices = np.unravel_index(np.asarray(flat, dtype=np.intp), self._space.shape)
        mass = np.ones(len(indices[0]))
        for table, index in zip(self._cell_mass_tables(), indices):
            mass = mass * table[index]
        return mass

    def region_probability(self, region: Region) -> float:
        """Probability mass of an axis-aligned region (product form).

        Exact for boxes thanks to dimension independence — no need to
        sum over individual cells.
        """
        if region.space is not self._space and region.space.shape != self._space.shape:
            raise ValueError("region belongs to a different parameter space")
        mass = 1.0
        for dim, (a, b) in enumerate(zip(region.lo, region.hi)):
            mass *= self._dim_probability(dim, a, b)
        return mass

    def total_mass(self) -> float:
        """Mass of the whole space (< 1: tails extend beyond the space)."""
        return self.region_probability(self._space.full_region())
