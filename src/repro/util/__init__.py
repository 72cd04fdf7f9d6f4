"""Small shared utilities: seeded randomness, validation, math helpers.

These modules carry no domain knowledge; everything stream-processing
specific lives in :mod:`repro.query`, :mod:`repro.core`,
:mod:`repro.engine`, :mod:`repro.runtime`, and :mod:`repro.workloads`.
"""

from repro.util.rng import SeedSequenceFactory, derive_rng
from repro.util.timing import StageTimer
from repro.util.validation import (
    ensure_finite,
    ensure_in_range,
    ensure_non_empty,
    ensure_non_negative,
    ensure_positive,
    ensure_probability,
)

__all__ = [
    "SeedSequenceFactory",
    "StageTimer",
    "derive_rng",
    "ensure_finite",
    "ensure_in_range",
    "ensure_non_empty",
    "ensure_non_negative",
    "ensure_positive",
    "ensure_probability",
]
