"""The whole-program context a :class:`~repro.analysis.rules.Rule`'s
``check_program`` hook sees.

Per-file rules see one :class:`~repro.analysis.rules.FileContext` at a
time; whole-program passes see a :class:`ProgramContext` bundling the
:class:`~repro.analysis.graph.ProgramGraph` with every file's context.
Findings still flow through ``FileContext.report``, so path scopes,
``# repro-lint: disable=...`` suppressions, and the text/JSON report
pipeline are shared verbatim: one engine, two granularities.
"""

from __future__ import annotations

import ast
from typing import Mapping

from repro.analysis.graph import ProgramGraph
from repro.analysis.rules import FileContext, Rule

__all__ = ["ProgramContext"]


class ProgramContext:
    """Everything a whole-program pass may consult about the program.

    ``contexts`` maps module names (``repro.engine.node``) to the
    per-file contexts carrying suppressions and collecting diagnostics.
    """

    def __init__(
        self,
        graph: ProgramGraph,
        contexts: Mapping[str, FileContext],
        *,
        respect_scopes: bool = True,
    ) -> None:
        self.graph = graph
        self.contexts = dict(contexts)
        self.respect_scopes = respect_scopes

    def report(self, rule: Rule, module: str, node: ast.AST, message: str) -> None:
        """File a finding in ``module`` unless off-scope or suppressed."""
        context = self.contexts.get(module)
        if context is None:
            return
        if self.respect_scopes and not rule.applies_to(context.path):
            return
        context.report(rule, node, message)
