"""The audit driver: parse the program once, run whole-program passes.

:class:`AuditRunner` mirrors :class:`~repro.analysis.engine.LintRunner`
— same discovery, same suppression comments, same report/exit-code
contract — but parses *all* requested files up front, builds one
:class:`~repro.analysis.graph.ProgramGraph`, and hands it to
:class:`~repro.analysis.program.AuditPass` objects instead of walking
files one at a time.  ``repro audit`` is the CLI shell around it.

Suppression semantics are shared with the linter verbatim: a
``# repro-lint: disable=shared-rng -- why`` comment absorbs an audit
finding on its line, malformed comments are ``bad-suppression``
findings, and suppressions naming a pass that is active for the file
but absorbed nothing are ``unused-suppression``.  Lint-rule
suppressions in the same files are left alone (they are not *active*
in an audit run, only *known*), so the two commands never fight over
each other's escape hatches.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.engine import _iter_python_files, parse_suppressions
from repro.analysis.graph import ProgramGraph, build_graph, module_name_for
from repro.analysis.program import AuditPass, ProgramContext
from repro.analysis.report import Diagnostic, LintReport
from repro.analysis.rules import (
    BAD_SUPPRESSION,
    UNUSED_SUPPRESSION,
    FileContext,
)

__all__ = ["AuditRunner", "audit_paths"]


def default_passes() -> tuple[AuditPass, ...]:
    """The audit-pass catalog (lazy import to keep layering acyclic)."""
    from repro.analysis.audit import all_passes

    return all_passes()


class AuditRunner:
    """Runs whole-program passes over a file set; see module docstring.

    ``respect_scopes=False`` lets every pass report into every file —
    the mode fixture tests use on synthetic packages outside the
    production ``src/repro`` scopes.
    """

    def __init__(
        self,
        passes: Iterable[AuditPass] | None = None,
        *,
        root: Path | None = None,
        respect_scopes: bool = True,
        report_unused_suppressions: bool = True,
    ) -> None:
        self.passes: tuple[AuditPass, ...] = (
            tuple(passes) if passes is not None else default_passes()
        )
        self.root = (root or Path.cwd()).resolve()
        self.respect_scopes = respect_scopes
        self.report_unused_suppressions = report_unused_suppressions

    def _relpath(self, path: Path) -> str:
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root).as_posix()
        except ValueError:
            return resolved.as_posix()

    def run(self, paths: Sequence[Path | str]) -> LintReport:
        """Audit the program rooted at ``paths``; aggregate findings."""
        report = LintReport()
        contexts: dict[str, FileContext] = {}
        parsed: list[tuple[Path, str, ast.Module, str]] = []
        for path in _iter_python_files([Path(p) for p in paths]):
            relpath = self._relpath(path)
            source = path.read_text(encoding="utf-8")
            report.files_checked += 1
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                report.diagnostics.append(
                    Diagnostic(
                        path=relpath,
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1,
                        rule="syntax-error",
                        message=f"file does not parse: {exc.msg}",
                    )
                )
                continue
            context = FileContext(
                path=relpath,
                tree=tree,
                source=source,
                suppressions=parse_suppressions(source),
            )
            module_name = module_name_for(path, self.root)
            contexts[module_name] = context
            parsed.append((path, relpath, tree, source))

        graph: ProgramGraph = build_graph(parsed, self.root)
        program = ProgramContext(
            graph, contexts, respect_scopes=self.respect_scopes
        )
        for audit_pass in self.passes:
            audit_pass.check_program(program)
        for context in contexts.values():
            self._audit_suppressions(context)
            report.diagnostics.extend(context.diagnostics)
        report.diagnostics.sort()
        return report

    def _audit_suppressions(self, context: FileContext) -> None:
        from repro.analysis.checks import known_rule_names

        active_names = {
            audit_pass.name
            for audit_pass in self.passes
            if not self.respect_scopes or audit_pass.applies_to(context.path)
        }
        known = known_rule_names()
        for suppressions in context.suppressions.values():
            for suppression in suppressions:
                anchor = ast.Pass()
                anchor.lineno = suppression.comment_line
                anchor.col_offset = 0
                if not suppression.valid:
                    context.report(
                        BAD_SUPPRESSION,
                        anchor,
                        "suppression lacks a justification: write "
                        "'# repro-lint: disable=<rule> -- <why>'",
                    )
                    continue
                unknown = suppression.rules - known
                if unknown:
                    context.report(
                        BAD_SUPPRESSION,
                        anchor,
                        f"suppression names unknown rule(s): "
                        f"{', '.join(sorted(unknown))}",
                    )
                    continue
                if (
                    self.report_unused_suppressions
                    and not suppression.used
                    and suppression.rules <= active_names
                ):
                    # Only suppressions aimed *exclusively* at audit
                    # passes active here can be judged dead by this run;
                    # lint-rule suppressions are the linter's to audit.
                    context.report(
                        UNUSED_SUPPRESSION,
                        anchor,
                        f"suppression for "
                        f"{', '.join(sorted(suppression.rules))} matched no "
                        f"finding; delete it or fix the justification target",
                    )


def audit_paths(
    paths: Sequence[Path | str],
    *,
    root: Path | None = None,
    passes: Iterable[AuditPass] | None = None,
) -> LintReport:
    """Convenience wrapper: audit ``paths`` with the default passes."""
    return AuditRunner(passes, root=root).run(paths)
