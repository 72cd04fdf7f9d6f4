"""The rule catalog: one module per rule, assembled here.

Adding a rule = adding a module with a :class:`~repro.analysis.rules.Rule`
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

__all__ = ["all_rules", "known_rule_names"]


def all_rules() -> tuple[Rule, ...]:
    """Fresh instances of every rule, in documentation order."""
    return (
        NoUnseededRngRule(),
        NoWallclockRule(),
        NoFloatEqRule(),
        NoMutableDefaultRule(),
        NoModuleMutableStateRule(),
    )


def known_rule_names() -> frozenset[str]:
    """Every valid ``disable=`` target: lint rules, audit passes, and
    the suppression-audit pseudo-rules.

    ``repro lint`` and ``repro audit`` share one suppression syntax, so
    each command must recognise the other's names (a lint run finding a
    ``disable=shared-rng`` comment reports nothing; only a genuinely
    unknown name is a ``bad-suppression``).
    """
    from repro.analysis.audit import all_passes
    from repro.analysis.rules import BAD_SUPPRESSION, UNUSED_SUPPRESSION

    return frozenset(
        {rule.name for rule in all_rules()}
        | {audit_pass.name for audit_pass in all_passes()}
        | {BAD_SUPPRESSION, UNUSED_SUPPRESSION}
    )
