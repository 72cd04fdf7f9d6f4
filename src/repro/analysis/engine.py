"""The analysis runner: discovery, suppression parsing, check dispatch.

:class:`LintRunner` is the library entry point (``repro lint`` is a
thin CLI shell around it).  A run

1. expands the requested paths into ``.py`` files (skipping anything
   under a hidden or ``__pycache__`` directory),
2. parses each file once — the AST, plus its ``# repro-lint:
   disable=...`` suppression comments (tokenize, not regex-over-lines,
   so ``#`` inside string literals can never masquerade as a
   suppression) — and runs every check whose scope covers it, and
3. appends ``bad-suppression`` / ``unused-suppression`` findings for
   malformed or dead escape hatches, judged against every check that
   ran on the file.

Paths are matched against check scopes *relative to the repo root*
(the directory passed as ``root``), with ``/`` separators on every
platform, so scopes in check classes stay portable.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.report import Diagnostic, LintReport
from repro.analysis.rules import (
    BAD_SUPPRESSION,
    UNUSED_SUPPRESSION,
    FileContext,
    Rule,
    Suppression,
    default_rules,
)

__all__ = ["LintRunner", "parse_suppressions"]

_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,\- ]+?)"
    r"\s*(?:--\s*(?P<why>.*))?$"
)


def parse_suppressions(source: str) -> dict[int, list[Suppression]]:
    """Map *applies-to* line numbers to their parsed suppressions.

    A trailing comment applies to its own line.  A standalone comment
    line (nothing but the comment) applies to the next non-comment
    line, so multi-line statements can be suppressed at their head.
    """
    found: list[tuple[int, bool, Suppression]] = []
    comment_only_lines: set[int] = set()
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return {}
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        line_no = token.start[0]
        line_text = lines[line_no - 1] if line_no <= len(lines) else ""
        standalone = line_text.strip().startswith("#")
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        rules = frozenset(
            name.strip() for name in match.group("rules").split(",") if name.strip()
        )
        suppression = Suppression(
            line=line_no,
            comment_line=line_no,
            rules=rules,
            justification=(match.group("why") or "").strip(),
        )
        found.append((line_no, standalone, suppression))
        if standalone:
            comment_only_lines.add(line_no)

    by_line: dict[int, list[Suppression]] = {}
    for line_no, standalone, suppression in found:
        target = line_no
        if standalone:
            # Walk down to the first line that is neither blank nor a
            # pure comment — the statement this suppression guards.
            probe = line_no + 1
            while probe <= len(lines) and (
                not lines[probe - 1].strip()
                or lines[probe - 1].strip().startswith("#")
            ):
                probe += 1
            target = probe
        suppression.line = target
        by_line.setdefault(target, []).append(suppression)
    return by_line


def _iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.relative_to(path).parts
                if any(p.startswith(".") or p == "__pycache__" for p in parts[:-1]):
                    continue
                yield candidate


class LintRunner:
    """Runs a check set over files; see the module docstring.

    ``respect_scopes=False`` applies every check to every file — the
    mode the fixture tests use to exercise checks on synthetic paths
    outside their production scopes.
    """

    def __init__(
        self,
        checks: Iterable[Rule] | None = None,
        *,
        root: Path | None = None,
        respect_scopes: bool = True,
    ) -> None:
        self.checks: tuple[Rule, ...] = (
            tuple(checks) if checks is not None else default_rules()
        )
        self.root = (root or Path.cwd()).resolve()
        self.respect_scopes = respect_scopes

    def _relpath(self, path: Path) -> str:
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root).as_posix()
        except ValueError:
            return resolved.as_posix()

    def _active(self, relpath: str) -> list[Rule]:
        return [
            check
            for check in self.checks
            if not self.respect_scopes or check.applies_to(relpath)
        ]

    def run(self, paths: Sequence[Path | str]) -> LintReport:
        """Check every ``.py`` file under ``paths``; aggregate findings."""
        report = LintReport()
        # Unknown-name detection consults the full catalog, not this
        # run's (possibly --disable-filtered) check set, so disabling a
        # check does not reclassify its suppressions.
        known_names = {
            check.name for check in (*default_rules(), *self.checks)
        } | {BAD_SUPPRESSION, UNUSED_SUPPRESSION}
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
            active = self._active(relpath)
            for check in active:
                check.check(context)
            self._audit_suppressions(context, active, known_names)
            report.diagnostics.extend(context.diagnostics)
        report.diagnostics.sort()
        return report

    def _audit_suppressions(
        self, context: FileContext, active: list[Rule], known_names: set[str]
    ) -> None:
        active_names = {check.name for check in active}
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
                unknown = suppression.rules - known_names
                if unknown:
                    context.report(
                        BAD_SUPPRESSION,
                        anchor,
                        f"suppression names unknown rule(s): "
                        f"{', '.join(sorted(unknown))}",
                    )
                    continue
                # A name is dead when its check ran on this file and
                # absorbed nothing on this line.
                dead = (suppression.rules & active_names) - suppression.absorbed
                if dead:
                    context.report(
                        UNUSED_SUPPRESSION,
                        anchor,
                        f"suppression for {', '.join(sorted(dead))} matched no "
                        f"finding; delete it or fix the justification target",
                    )
