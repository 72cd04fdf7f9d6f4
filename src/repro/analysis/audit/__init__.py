"""The whole-program audit passes behind ``repro audit``.

Each pass is an :class:`~repro.analysis.program.AuditPass` run over the
:class:`~repro.analysis.graph.ProgramGraph`; ``all_passes()`` is the
catalog in documentation order (mirroring ``all_rules()`` for the
linter).  See ``docs/static-analysis.md`` for the pass catalog and the
approximations each one makes.
"""

from __future__ import annotations

from repro.analysis.audit.aliasing import SharedNodeStatePass
from repro.analysis.audit.faultpath import FaultHookRaisesPass
from repro.analysis.audit.rngflow import SharedRngPass
from repro.analysis.program import AuditPass

__all__ = [
    "FaultHookRaisesPass",
    "SharedNodeStatePass",
    "SharedRngPass",
    "all_passes",
]


def all_passes() -> tuple[AuditPass, ...]:
    """The full audit-pass catalog, in stable (documentation) order."""
    return (
        SharedNodeStatePass(),
        FaultHookRaisesPass(),
        SharedRngPass(),
    )
