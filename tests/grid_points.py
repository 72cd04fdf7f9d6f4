"""The grid's statistic values, read one point at a time.

The test oracles build a parameter space's values from
:meth:`~repro.core.parameter_space.ParameterSpace.point_at`, the
scalar per-point read, so they do not reuse the index columns and
table lookups of the scan they check.
"""

from __future__ import annotations

import numpy as np

from repro.core.parameter_space import ParameterSpace


def grid_columns(space: ParameterSpace) -> list[np.ndarray]:
    """Each dimension's value at every grid point, in row-major order;
    columns follow ``space.names``."""
    points = [space.point_at(index) for index in space.grid_indices()]
    return [np.array([point[name] for point in points]) for name in space.names]
