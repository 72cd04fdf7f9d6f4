"""`repro-lint`: AST-based enforcement of the repo's reproducibility contracts.

Determinism is *load-bearing*: seeded fault injection replays
bit-identically.  Nothing in Python stops one stray ``random.random()``
or ``time.time()`` from silently breaking that contract — so this
package checks it statically, one file at a time.  Properties of the
built program are runtime invariants instead, each proved by a test
that walks or drives the real objects: frozen shared arrays, node
isolation, one owner per RNG, and fault hooks that raise only
``FaultError`` (``docs/static-analysis.md``, "Runtime invariants").

Layout:

* :mod:`repro.analysis.report` — :class:`Diagnostic` and the
  text/JSON renderers.
* :mod:`repro.analysis.rules` — the :class:`Rule` base class, the
  per-file :class:`FileContext`, and the catalog accessor.
* :mod:`repro.analysis.engine` — file discovery, suppression-comment
  parsing, and the :class:`LintRunner` that parses each file once,
  runs every check, and audits the suppressions.
* :mod:`repro.analysis.checks` — the catalog (``all_rules()``) and one
  module per rule.

The CLI front-end is ``repro lint`` (see :mod:`repro.cli`); CI and
``make lint`` gate on its exit code.
"""

from __future__ import annotations

from repro.analysis.engine import LintRunner
from repro.analysis.report import Diagnostic, LintReport, render_json, render_text
from repro.analysis.rules import FileContext, Rule, default_rules

__all__ = [
    "Diagnostic",
    "FileContext",
    "LintReport",
    "LintRunner",
    "Rule",
    "default_rules",
    "render_json",
    "render_text",
]
