"""The rule framework: per-file context, the rule base class, registry.

A rule (a *check*) is a stateless object with a ``name``, a default
path ``scope`` (directory prefixes relative to the repo root), and a
``check`` hook that walks one file's AST and reports through the
:class:`FileContext`.  Scoping and suppression filtering happen in the
runner and the context, so rule bodies contain nothing but invariant
logic.

Suppressions
------------

A finding on line ``N`` is suppressed when line ``N`` (or a standalone
comment line directly above it) carries::

    # repro-lint: disable=<rule>[,<rule>...] -- <justification>

The justification after ``--`` is mandatory: a suppression without one
does not suppress anything and instead raises a ``bad-suppression``
finding, so every escape hatch in the tree documents *why* the
invariant does not apply.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.analysis.report import Diagnostic

__all__ = [
    "BAD_SUPPRESSION",
    "UNUSED_SUPPRESSION",
    "FileContext",
    "Rule",
    "Suppression",
    "default_rules",
]

#: Pseudo-rule name for malformed suppression comments.
BAD_SUPPRESSION = "bad-suppression"

#: Pseudo-rule name for suppressions that matched no finding.
UNUSED_SUPPRESSION = "unused-suppression"


@dataclass
class Suppression:
    """One parsed ``# repro-lint: disable=...`` comment.

    ``line`` is the source line the suppression *applies to* (for a
    standalone comment line, the first code line below it);
    ``comment_line`` is where the comment itself sits.  ``rules`` is
    the set of rule names disabled; ``justification`` the text after
    ``--`` (empty means malformed).  ``absorbed`` collects the names
    whose findings it actually swallowed; the unused-suppression audit
    reads it name by name.
    """

    line: int
    comment_line: int
    rules: frozenset[str]
    justification: str
    absorbed: set[str] = field(default_factory=set)

    @property
    def valid(self) -> bool:
        """True when the mandatory justification is present."""
        return bool(self.justification.strip())


@dataclass
class FileContext:
    """Everything a rule may consult about the file under check."""

    path: str
    tree: ast.Module
    source: str
    suppressions: Mapping[int, list[Suppression]] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def report(self, rule: "Rule | str", node: ast.AST, message: str) -> None:
        """File a finding at ``node`` unless a suppression absorbs it."""
        rule_name = rule if isinstance(rule, str) else rule.name
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        for suppression in self.suppressions.get(line, ()):
            if suppression.valid and rule_name in suppression.rules:
                suppression.absorbed.add(rule_name)
                return
        self.diagnostics.append(
            Diagnostic(path=self.path, line=line, col=col, rule=rule_name, message=message)
        )


class Rule:
    """Base class for every check.

    Subclasses set :attr:`name` (the suppression/CLI identifier),
    :attr:`description` (one line, for ``--list-rules`` and docs),
    :attr:`scope` (directory prefixes, ``/``-separated and relative to
    the repo root, the rule applies to — empty means everywhere), and
    :attr:`allow` (exact relative paths exempt even inside the scope),
    and override :meth:`check`.
    """

    name: str = ""
    description: str = ""
    scope: tuple[str, ...] = ()
    allow: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """Whether ``relpath`` (``/``-separated) is inside this rule's
        scope and not explicitly allowlisted."""
        if relpath in self.allow:
            return False
        if not self.scope:
            return True
        return any(
            relpath == prefix or relpath.startswith(prefix + "/")
            for prefix in self.scope
        )

    def check(self, context: FileContext) -> None:
        """Walk one file's ``context.tree`` and report findings."""


def default_rules() -> tuple[Rule, ...]:
    """The full check catalog, in stable (documentation) order."""
    from repro.analysis.checks import all_rules

    return all_rules()


def resolve_rules(
    enabled: Iterable[Rule], disable: Sequence[str] = ()
) -> tuple[Rule, ...]:
    """Filter a rule set by ``--disable`` names; unknown names raise."""
    rules = tuple(enabled)
    known = {rule.name for rule in rules}
    unknown = [name for name in disable if name not in known]
    if unknown:
        raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")
    dropped = set(disable)
    return tuple(rule for rule in rules if rule.name not in dropped)
