"""The check catalog: one module per check, assembled here.

Adding a check = adding a module with a :class:`~repro.analysis.rules.Rule`
subclass, instantiating it in :func:`all_rules`, and documenting it in
``docs/static-analysis.md`` (the doc test cross-checks the catalog).
"""

from __future__ import annotations

from repro.analysis.checks.floateq import NoFloatEqRule
from repro.analysis.checks.module_state import NoModuleMutableStateRule
from repro.analysis.checks.mutable_defaults import NoMutableDefaultRule
from repro.analysis.checks.rng import NoUnseededRngRule
from repro.analysis.checks.wallclock import NoWallclockRule
from repro.analysis.rules import Rule

__all__ = ["all_rules"]


def all_rules() -> tuple[Rule, ...]:
    """Fresh instances of every check, in documentation order."""
    return (
        NoUnseededRngRule(),
        NoWallclockRule(),
        NoFloatEqRule(),
        NoMutableDefaultRule(),
        NoModuleMutableStateRule(),
    )
