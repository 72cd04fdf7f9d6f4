"""Correlated occurrence probabilities — the paper's stated future work.

§8: "In the future we will explore advanced issues related to data
correlations across streams and in particular synchronized across-
stream fluctuation patterns."  The §5.2 weight model assumes dimension
independence (zero correlation, as classical optimizers do); but the
workloads that motivate RLD — Example 1's bull/bear regimes — move
statistics in *lockstep*: when news-match selectivities rise, pattern-
match selectivities fall.  Under such synchronized fluctuation the
probability mass concentrates along a diagonal of the parameter space,
and plan weights computed under independence misrank the robust plans.

:class:`CorrelatedOccurrenceModel` implements the extension: a
multivariate-normal occurrence distribution with an arbitrary
correlation matrix, exposing the same ``cell_probability`` /
``region_probability`` interface as
:class:`~repro.core.occurrence.NormalOccurrenceModel`, so it drops
straight into ``RobustLogicalSolution.plan_weights`` and the physical
planners.  Box masses are computed by inclusion–exclusion over the
multivariate normal CDF (SciPy).
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Mapping, Sequence

import numpy as np

from repro.core.occurrence import dimension_means
from repro.core.parameter_space import GridIndex, ParameterSpace, Region
from repro.util.rng import derive_rng
from repro.util.validation import ensure_finite, ensure_positive
from repro.util.types import FloatArray, IntArray

__all__ = ["CorrelatedOccurrenceModel"]

#: Default standard deviation as a fraction of the dimension half-width
#: (matches NormalOccurrenceModel).
DEFAULT_SIGMA_FRACTION = 0.5

#: Seed of the generator behind every CDF evaluation.  SciPy integrates
#: three or more dimensions by randomized quasi-Monte Carlo; a fresh
#: generator with this seed per call makes equal inputs give equal masses.
CDF_SEED = 20130408


class CorrelatedOccurrenceModel:
    """Multivariate-normal occurrence over the parameter space.

    Parameters
    ----------
    space:
        The parameter space whose cells are weighted.
    correlation:
        Symmetric positive-semidefinite correlation matrix, one row per
        *non-pinned* space dimension in space order.  Defaults to the
        identity (independence, i.e. the §5.2 model).
    means:
        Optional per-dimension means (default: dimension midpoints).
    sigma_fraction:
        Standard deviation per dimension as a fraction of its
        half-width.
    """

    def __init__(
        self,
        space: ParameterSpace,
        *,
        correlation: Sequence[Sequence[float]] | None = None,
        means: Mapping[str, float] | None = None,
        sigma_fraction: float = DEFAULT_SIGMA_FRACTION,
    ) -> None:
        ensure_positive(
            ensure_finite(sigma_fraction, "sigma_fraction"), "sigma_fraction"
        )
        self._space = space
        self._active: list[int] = [
            i for i, dim in enumerate(space.dimensions) if dim.width > 0
        ]
        d = len(self._active)
        if d == 0:
            raise ValueError("space has no varying dimensions to correlate")

        if correlation is None:
            corr = np.eye(d)
        else:
            corr = np.asarray(correlation, dtype=float)
            if corr.shape != (d, d):
                raise ValueError(
                    f"correlation must be {d}x{d} for the {d} varying "
                    f"dimensions, got {corr.shape}"
                )
            if not np.allclose(corr, corr.T):
                raise ValueError("correlation matrix must be symmetric")
            if not np.allclose(np.diag(corr), 1.0):
                raise ValueError("correlation matrix diagonal must be 1")
            eigenvalues = np.linalg.eigvalsh(corr)
            if eigenvalues.min() < -1e-9:
                raise ValueError("correlation matrix must be positive semidefinite")

        self._means = np.array(dimension_means(space, means))[self._active]
        self._sigmas = np.array(
            [
                sigma_fraction * 0.5 * space.dimensions[i].width
                for i in self._active
            ]
        )
        scale = np.outer(self._sigmas, self._sigmas)
        self._covariance = corr * scale

        from scipy.stats import multivariate_normal  # deferred: heavy import

        # allow_singular tolerates |ρ| = 1 (perfectly synchronized dims).
        self._mvn = multivariate_normal(
            mean=self._means, cov=self._covariance, allow_singular=True
        )

    @property
    def space(self) -> ParameterSpace:
        """The parameter space this model covers."""
        return self._space

    def _cdf(self, upper: FloatArray) -> FloatArray:
        """The multivariate normal CDF at ``upper`` (a point or rows)."""
        self._mvn.random_state = derive_rng(CDF_SEED)
        return np.asarray(self._mvn.cdf(upper))

    def _box_masses(
        self, lo: Sequence[IntArray], hi: Sequence[IntArray]
    ) -> FloatArray:
        """Mass of each box spanning grid cells ``lo[k]..hi[k]``.

        ``lo`` and ``hi`` hold one index array per space dimension, one
        entry per box.  Inclusion–exclusion over the 2^d corners of every
        box, with one CDF call per corner for all boxes at once.
        """
        d = len(self._active)
        n = len(lo[0])
        lows = np.empty((n, d))
        highs = np.empty((n, d))
        lo_values = self._space.values_at(lo)
        hi_values = self._space.values_at(hi)
        for position, dim_index in enumerate(self._active):
            half = 0.5 * self._space.dimensions[dim_index].cell_width
            lows[:, position] = lo_values[dim_index] - half
            highs[:, position] = hi_values[dim_index] + half
        total = np.zeros(n)
        if not n:
            return total
        for corner in iter_product((0, 1), repeat=d):
            points = np.where(np.array(corner) == 1, highs, lows)
            sign = (-1) ** (d - sum(corner))
            total += sign * self._cdf(points).reshape(n)
        return np.maximum(total, 0.0)

    def cell_probability(self, index: GridIndex) -> float:
        """Probability mass of the single grid cell at ``index``."""
        cell = tuple(index)
        return self.region_probability(Region(self._space, cell, cell))

    def masses(self, indices: Sequence[IntArray]) -> FloatArray:
        """:meth:`cell_probability` at the grid points whose index
        columns (one per dimension) are ``indices``."""
        return self._box_masses(indices, indices)

    def region_probability(self, region: Region) -> float:
        """Probability mass of an axis-aligned region."""
        lo = [np.array([i]) for i in region.lo]
        hi = [np.array([i]) for i in region.hi]
        return float(self._box_masses(lo, hi)[0])

    def total_mass(self) -> float:
        """Mass of the whole space (< 1: tails extend beyond it)."""
        return self.region_probability(self._space.full_region())

    @classmethod
    def anti_synchronized(
        cls,
        space: ParameterSpace,
        *,
        rho: float = -0.8,
        sigma_fraction: float = DEFAULT_SIGMA_FRACTION,
    ) -> "CorrelatedOccurrenceModel":
        """Uniform pairwise correlation ``rho`` across all dimensions.

        Negative ``rho`` models Example 1's regimes, where one group of
        selectivities rises as the other falls.  ``rho`` must keep the
        equicorrelation matrix PSD: ``rho ≥ −1/(d−1)`` for d dims.
        """
        d = sum(1 for dim in space.dimensions if dim.width > 0)
        if d > 1 and rho < -1.0 / (d - 1) - 1e-12:
            raise ValueError(
                f"equicorrelation rho={rho} is not PSD for {d} dimensions "
                f"(minimum is {-1.0 / (d - 1):.3f})"
            )
        corr = np.full((d, d), rho)
        np.fill_diagonal(corr, 1.0)
        return cls(space, correlation=corr, sigma_fraction=sigma_fraction)
