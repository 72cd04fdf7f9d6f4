"""Multi-dimensional parameter space (§2.2, Algorithm 1).

The parameter space ``S`` models uncertainty in optimizer statistics:
each *dimension* is one uncertain statistic (an operator selectivity or
a stream input rate) stretched around its point estimate ``e`` to
``[e·(1 − Δ·u), e·(1 + Δ·u)]`` with unit step Δ = 0.1 and integer
uncertainty level ``u`` — exactly Algorithm 1.

Each dimension is discretized (§2.2 "each dimension of the parameter
space is discretized"); the grid resolution scales with the uncertainty
level, so higher uncertainty means a larger space to search — the
mechanism behind Figure 10's growth of optimizer calls with ``U``.

Index-space conventions: a grid point is a tuple of integer indices
(one per dimension); a :class:`Region` is an axis-aligned box of such
indices with inclusive bounds.  ``pnt_lo``/``pnt_hi`` are the region's
bottom-left and top-right corners as real-valued :class:`StatPoint`\\ s,
matching the paper's ``pntLo``/``pntHi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.query.statistics import StatisticsEstimate, StatPoint
from repro.util.validation import ensure_non_empty, ensure_positive
from repro.util.types import FloatArray, IntArray

__all__ = ["Dimension", "ParameterSpace", "Region", "GridIndex"]

#: A grid point: one integer index per dimension.
GridIndex = tuple[int, ...]

#: Default grid points per uncertainty level (steps = level·this + 1),
#: giving 2U+1 points per dimension at the default of 2.
DEFAULT_POINTS_PER_LEVEL = 2


@dataclass(frozen=True)
class Dimension:
    """One discretized axis of the parameter space.

    ``lo``/``hi`` are the Algorithm 1 bounds; ``steps`` the number of
    grid points (≥ 1).  ``steps == 1`` models an exact parameter pinned
    at ``lo == hi``.
    """

    name: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("dimension name must not be empty")
        if self.hi < self.lo:
            raise ValueError(
                f"dimension {self.name!r} has hi={self.hi} < lo={self.lo}"
            )
        if self.steps < 1:
            raise ValueError(f"dimension {self.name!r} needs >= 1 step")
        # repro-lint: disable=no-float-eq -- a one-step dimension is pinned: lo and hi must be the *same* value, bit for bit, or value(0) would silently pick one of two different answers
        if self.steps == 1 and self.hi != self.lo:
            raise ValueError(
                f"dimension {self.name!r} with one step must have lo == hi"
            )

    @property
    def width(self) -> float:
        """Extent of the dimension in parameter units."""
        return self.hi - self.lo

    @cached_property
    def cell_width(self) -> float:
        """Distance between adjacent grid values (0 for a pinned dim).

        Cached per instance, outside the dataclass fields: routing snaps
        every batch's statistics to the grid through it.
        """
        if self.steps == 1:
            return 0.0
        return self.width / (self.steps - 1)

    def value(self, index: int) -> float:
        """Real value of grid index ``index`` along this dimension."""
        if not 0 <= index < self.steps:
            raise IndexError(
                f"index {index} out of range for dimension {self.name!r} "
                f"with {self.steps} steps"
            )
        if self.steps == 1:
            return self.lo
        return self.lo + index * self.cell_width

    def nearest_index(self, value: float) -> int:
        """Grid index whose value is nearest to ``value`` (clamped).

        A value exactly halfway between two grid cells rounds to the
        *even* index (IEEE round-half-to-even, Python's ``round``).
        """
        if self.steps == 1 or self.cell_width <= 0:
            return 0
        raw = round((value - self.lo) / self.cell_width)
        return max(0, min(self.steps - 1, int(raw)))

    def values_array(self) -> FloatArray:
        """All grid values along this dimension as a float array.

        Entry ``i`` is computed as ``lo + i·cell_width`` — bitwise
        identical to :meth:`value`, so dense-grid consumers see exactly
        the values the scalar path sees.
        """
        if self.steps == 1:
            return np.array([self.lo])
        return self.lo + np.arange(self.steps) * self.cell_width


class ParameterSpace:
    """A discretized hyper-rectangle of statistics values.

    Build one directly from :class:`Dimension` objects or — the common
    path — from a :class:`StatisticsEstimate` via :meth:`from_estimates`
    (Algorithm 1 plus level-scaled discretization).
    """

    def __init__(self, dimensions: Sequence[Dimension]) -> None:
        ensure_non_empty(dimensions, "dimensions")
        names = [d.name for d in dimensions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names: {names}")
        self._dimensions = tuple(dimensions)
        #: Each dimension's grid values, built once and frozen: every
        #: :meth:`points_matrix` block reads them.
        self._axis_values = tuple(d.values_array() for d in self._dimensions)
        for values in self._axis_values:
            values.setflags(write=False)

    @classmethod
    def from_estimates(
        cls,
        estimate: StatisticsEstimate,
        *,
        points_per_level: int = DEFAULT_POINTS_PER_LEVEL,
        min_steps: int = 2,
    ) -> "ParameterSpace":
        """Algorithm 1: stretch each uncertain estimate into a dimension.

        Each uncertain parameter with level ``u`` becomes a dimension
        over ``[e·(1 − 0.1u), e·(1 + 0.1u)]`` discretized into
        ``max(min_steps, points_per_level·u + 1)`` grid points.  Exact
        parameters (level 0) are excluded — they stay at their point
        estimate and never vary.
        """
        ensure_positive(points_per_level, "points_per_level")
        names = estimate.uncertain_parameters()
        ensure_non_empty(names, "uncertain parameters")
        dimensions = []
        for name in names:
            lo, hi = estimate.bounds(name)
            level = estimate.uncertainty[name]
            steps = max(min_steps, points_per_level * level + 1)
            dimensions.append(Dimension(name, lo, hi, steps))
        return cls(dimensions)

    @property
    def dimensions(self) -> tuple[Dimension, ...]:
        """The space's dimensions, in fixed order."""
        return self._dimensions

    @property
    def n_dims(self) -> int:
        """Dimensionality ``d`` of the space."""
        return len(self._dimensions)

    @property
    def names(self) -> tuple[str, ...]:
        """Dimension (parameter) names, in dimension order."""
        return tuple(d.name for d in self._dimensions)

    @property
    def shape(self) -> tuple[int, ...]:
        """Grid points per dimension."""
        return tuple(d.steps for d in self._dimensions)

    @property
    def n_points(self) -> int:
        """Total number of grid points in the space."""
        total = 1
        for d in self._dimensions:
            total *= d.steps
        return total

    def point_at(self, index: GridIndex) -> StatPoint:
        """The :class:`StatPoint` at grid index ``index``."""
        if len(index) != self.n_dims:
            raise ValueError(
                f"index has {len(index)} components, space has {self.n_dims} dims"
            )
        return StatPoint(
            {d.name: d.value(i) for d, i in zip(self._dimensions, index)}
        )

    def grid_indices(self) -> Iterator[GridIndex]:
        """Iterate over every grid index in row-major order."""
        return iter_product(*(range(d.steps) for d in self._dimensions))

    # ------------------------------------------------------------------
    # Row-major flat positions (the vectorized evaluation core's substrate)
    # ------------------------------------------------------------------

    def index_of_flat(self, flat: int) -> GridIndex:
        """Grid index at row-major flat position ``flat`` — its place in
        :meth:`grid_indices` order."""
        if not 0 <= flat < self.n_points:
            raise IndexError(f"flat index {flat} out of range [0, {self.n_points})")
        index = []
        for d in reversed(self._dimensions):
            index.append(flat % d.steps)
            flat //= d.steps
        return tuple(reversed(index))

    def points_matrix(self, flat: IntArray) -> FloatArray:
        """Dense ``(len(flat), n_dims)`` value matrix at row-major flat
        grid positions; columns follow :attr:`names`.  Values are
        bitwise identical to :meth:`Dimension.value`.  Callers pass
        bounded blocks of positions, never the whole of a large grid."""
        indices = np.unravel_index(np.asarray(flat, dtype=np.intp), self.shape)
        # Filled column by column into column-major storage: the batch
        # cost kernels read the matrix one column at a time.
        columns = np.empty((self.n_dims, len(indices[0])))
        for column, values, index in zip(columns, self._axis_values, indices):
            column[:] = values[index]
        return columns.T

    def nearest_flat_index(self, point: Mapping[str, float]) -> int | None:
        """Row-major flat index of the grid cell nearest to ``point``.

        Returns ``None`` when the point is *off-grid*: a space dimension
        is missing from ``point``, or its value falls more than half a
        cell outside the dimension's ``[lo, hi]`` box (for a pinned
        single-step dimension, deviates from its only value by more than
        1e-9 relative).  Callers use ``None`` as the signal to fall back
        to live (non-tabulated) evaluation.
        """
        flat = 0
        for d in self._dimensions:
            value = point.get(d.name)
            if value is None:
                return None
            value = float(value)
            if d.steps == 1:
                if abs(value - d.lo) > 1e-9 * max(abs(d.lo), 1.0):
                    return None
                continue
            half = d.cell_width / 2.0
            if not (d.lo - half <= value <= d.hi + half):
                return None
            flat = flat * d.steps + d.nearest_index(value)
        return flat

    def full_region(self) -> "Region":
        """The region spanning the entire space."""
        return Region(
            self, (0,) * self.n_dims, tuple(d.steps - 1 for d in self._dimensions)
        )

    def __repr__(self) -> str:
        dims = ", ".join(
            f"{d.name}[{d.lo:.4g}..{d.hi:.4g}/{d.steps}]" for d in self._dimensions
        )
        return f"ParameterSpace({dims})"


@dataclass(frozen=True)
class Region:
    """An axis-aligned box of grid indices with inclusive bounds.

    ``lo``/``hi`` are index tuples with ``lo[i] <= hi[i]``.  The paper's
    corner points ``pntLo``/``pntHi`` are exposed as real-valued
    :class:`StatPoint` properties.
    """

    space: ParameterSpace
    lo: GridIndex
    hi: GridIndex

    def __post_init__(self) -> None:
        if len(self.lo) != self.space.n_dims or len(self.hi) != self.space.n_dims:
            raise ValueError("region bounds must match space dimensionality")
        for d, (a, b) in enumerate(zip(self.lo, self.hi)):
            steps = self.space.dimensions[d].steps
            if not (0 <= a <= b <= steps - 1):
                raise ValueError(
                    f"invalid bounds [{a}, {b}] on dimension "
                    f"{self.space.names[d]!r} with {steps} steps"
                )

    @property
    def pnt_lo(self) -> StatPoint:
        """Bottom-left corner (the paper's ``pntLo``)."""
        return self.space.point_at(self.lo)

    @property
    def pnt_hi(self) -> StatPoint:
        """Top-right corner (the paper's ``pntHi``)."""
        return self.space.point_at(self.hi)

    @property
    def n_points(self) -> int:
        """Number of grid points inside the region."""
        total = 1
        for a, b in zip(self.lo, self.hi):
            total *= b - a + 1
        return total

    @property
    def area_fraction(self) -> float:
        """Region size as a fraction of the whole space's grid points."""
        return self.n_points / self.space.n_points

    @property
    def is_cell(self) -> bool:
        """True when the region is a single grid point."""
        # repro-lint: disable=no-float-eq -- Region.lo/hi are integer GridIndex tuples, not floats; the file-local float inference conflates them with Dimension.lo/hi
        return self.lo == self.hi

    def contains(self, index: GridIndex) -> bool:
        """True when grid index ``index`` falls inside the region."""
        return all(a <= i <= b for i, a, b in zip(index, self.lo, self.hi))

    def indices(self) -> Iterator[GridIndex]:
        """Iterate over the region's grid indices in row-major order."""
        return iter_product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    def can_split(self) -> bool:
        """True when at least one dimension has >= 2 grid points."""
        return any(b > a for a, b in zip(self.lo, self.hi))

    def split_at(self, point: GridIndex) -> list["Region"]:
        """Split into up to ``2^d`` sub-regions at ``point``.

        Along each dimension with ``lo[i] <= point[i] < hi[i]`` the
        region divides into ``[lo..point]`` and ``[point+1..hi]``;
        dimensions where the point is at/above ``hi`` or the region is
        flat contribute a single interval.  Sub-regions tile the parent
        exactly (disjoint, union-complete), which the tests verify.
        """
        if not self.contains(point):
            raise ValueError(f"split point {point} outside region [{self.lo}, {self.hi}]")
        per_dim: list[list[tuple[int, int]]] = []
        for a, b, p in zip(self.lo, self.hi, point):
            if a <= p < b:
                per_dim.append([(a, p), (p + 1, b)])
            else:
                per_dim.append([(a, b)])
        pieces = [
            Region(
                self.space,
                tuple(interval[0] for interval in combo),
                tuple(interval[1] for interval in combo),
            )
            for combo in iter_product(*per_dim)
        ]
        if len(pieces) == 1:
            raise ValueError(
                f"split point {point} does not divide region [{self.lo}, {self.hi}]"
            )
        return pieces

    def __repr__(self) -> str:
        return f"Region(lo={self.lo}, hi={self.hi}, points={self.n_points})"
