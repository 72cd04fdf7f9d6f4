"""The whole-program passes: checks that implement ``check_program``.

Each pass is a :class:`~repro.analysis.rules.Rule` run once over the
:class:`~repro.analysis.graph.ProgramGraph`; the catalog that lists
them beside the per-file rules is ``all_rules()`` in
:mod:`repro.analysis.checks`.  See ``docs/static-analysis.md`` for the
pass catalog and the approximations each one makes.
"""

from __future__ import annotations

from repro.analysis.audit.aliasing import SharedNodeStatePass
from repro.analysis.audit.faultpath import FaultHookRaisesPass
from repro.analysis.audit.rngflow import SharedRngPass

__all__ = ["FaultHookRaisesPass", "SharedNodeStatePass", "SharedRngPass"]
