"""Argument-validation helpers shared across the library.

The public API raises ``ValueError`` with a consistent message format for
out-of-domain arguments, so user errors fail fast at construction time
rather than surfacing as NaNs deep inside a simulation or search.
"""

from __future__ import annotations

import math
from typing import Sized

__all__ = [
    "ensure_finite",
    "ensure_positive",
    "ensure_non_negative",
    "ensure_in_range",
    "ensure_probability",
    "ensure_non_empty",
]


def ensure_finite(value: float, name: str) -> float:
    """Return ``value`` if it is a finite number (not NaN or ±inf), else raise."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def ensure_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, else raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def ensure_non_negative(value: float, name: str) -> float:
    """Return ``value`` if ``>= 0``, else raise ``ValueError``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def ensure_in_range(
    value: float, name: str, lo: float, hi: float, *, inclusive: bool = True
) -> float:
    """Return ``value`` if inside ``[lo, hi]`` (or ``(lo, hi)``), else raise."""
    if inclusive:
        ok = lo <= value <= hi
        bounds = f"[{lo}, {hi}]"
    else:
        ok = lo < value < hi
        bounds = f"({lo}, {hi})"
    if not ok:
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")
    return value


def ensure_probability(value: float, name: str) -> float:
    """Return ``value`` if it is a valid probability in ``[0, 1]``."""
    return ensure_in_range(value, name, 0.0, 1.0)


def ensure_non_empty(collection: Sized, name: str) -> Sized:
    """Return ``collection`` if it has at least one element, else raise."""
    if len(collection) == 0:
        raise ValueError(f"{name} must not be empty")
    return collection
