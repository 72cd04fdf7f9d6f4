"""`repro-lint`: AST-based enforcement of the repo's reproducibility contracts.

Determinism is *load-bearing*: seeded fault injection replays
bit-identically.  Nothing in Python stops one stray ``random.random()``
or ``time.time()`` from silently breaking that contract — so this
package checks it statically.  Frozen shared arrays are a runtime
invariant instead: every array a compiled solution holds is read-only,
and a test walks the solution to prove it (``docs/static-analysis.md``,
"Runtime freeze").

Layout:

* :mod:`repro.analysis.report` — :class:`Diagnostic` and the
  text/JSON renderers.
* :mod:`repro.analysis.rules` — the :class:`Rule` protocol, the
  per-file :class:`FileContext`, and the rule registry.
* :mod:`repro.analysis.engine` — file discovery, suppression-comment
  parsing, and the :class:`LintRunner` that drives rules over a tree.
* :mod:`repro.analysis.checks` — one module per rule (the rule
  catalog lives in ``docs/static-analysis.md``).
* :mod:`repro.analysis.graph` — the whole-program substrate: import
  graph, symbol index, and the approximate call graph.
* :mod:`repro.analysis.program` / :mod:`repro.analysis.audit` — the
  :class:`AuditPass` framework and the interprocedural passes behind
  ``repro audit`` (cross-node aliasing, fault-path exception safety,
  RNG discipline).
* :mod:`repro.analysis.auditor` — the :class:`AuditRunner` driving
  passes over one parsed program.

The CLI front-ends are ``repro lint`` and ``repro audit`` (see
:mod:`repro.cli`); CI and ``make lint`` gate on both exit codes.
"""

from __future__ import annotations

from repro.analysis.auditor import AuditRunner, audit_paths
from repro.analysis.engine import LintRunner, lint_paths
from repro.analysis.report import Diagnostic, LintReport, render_json, render_text
from repro.analysis.rules import FileContext, Rule, default_rules

__all__ = [
    "AuditRunner",
    "Diagnostic",
    "FileContext",
    "LintReport",
    "LintRunner",
    "Rule",
    "audit_paths",
    "default_rules",
    "lint_paths",
    "render_json",
    "render_text",
]
