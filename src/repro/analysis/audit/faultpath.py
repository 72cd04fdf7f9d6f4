"""``fault-hook-raises``: on_fault hooks never raise past the engine.

The simulator calls each strategy's ``on_fault(simulator, event)``
after applying an injected fault.  The fault ledger (crash counts,
downtime, stalls) is mid-update around that call: an exception escaping
the hook unwinds the event loop and kills the run, turning a *survived*
fault into a crashed simulation — the exact opposite of the graceful
degradation the hook exists for.  The sanctioned channel is
:class:`repro.engine.faults.FaultError`: the engine catches it, counts
it in ``report.fault_hook_errors``, and keeps running.

This pass proves the property interprocedurally: a fixpoint over the
call graph computes, per function, the set of exception types that can
escape it (explicit ``raise`` statements, bare re-raises inside
handlers, and everything propagated from resolved callees), modeling
``try/except`` by matching raised types against handler clauses through
both the builtin exception hierarchy and program-defined base chains.
Any type escaping an ``on_fault`` hook that is not ``FaultError`` (or a
subclass) is a finding, with the propagation chain in the message.

Approximations (see docs/static-analysis.md): only *explicit* raises
are modeled — ``KeyError`` from a bare subscript, ``AssertionError``
from ``assert``, or a raising property getter are invisible; unresolved
calls contribute nothing.  The engine-side ``except FaultError`` guard
is the runtime backstop for what the statics miss.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.graph import (
    CallSite,
    ClassInfo,
    FunctionInfo,
    ProgramGraph,
)
from repro.analysis.program import ProgramContext
from repro.analysis.rules import Rule

__all__ = ["FaultHookRaisesPass"]

#: Name of the sanctioned hook exception (matched by class name so
#: fixtures can define their own without importing the engine's).
SANCTIONED = "FaultError"

#: Builtin exception -> immediate parent, enough of the hierarchy to
#: match ``except`` clauses in this codebase and its fixtures.
_BUILTIN_PARENT = {
    "ValueError": "Exception",
    "TypeError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "KeyError": "LookupError",
    "IndexError": "LookupError",
    "LookupError": "Exception",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "AttributeError": "Exception",
    "AssertionError": "Exception",
    "OSError": "Exception",
    "IOError": "OSError",
    "FileNotFoundError": "OSError",
    "PermissionError": "OSError",
    "StopIteration": "Exception",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "Exception": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "BaseException": "",
}


@dataclass
class _Summary:
    """Exceptions escaping one function: type name -> provenance chain."""

    escapes: dict[str, str] = field(default_factory=dict)


class _ExceptionModel:
    """Subclass queries across builtins and program-defined classes."""

    def __init__(self, graph: ProgramGraph) -> None:
        self._graph = graph

    def base_chain(self, name: str) -> list[str]:
        """``name`` and all its ancestors, by last-component class name."""
        chain = [name]
        seen = {name}
        current = name
        while True:
            cls = self._lookup(current)
            if cls is not None:
                parents = [base.rpartition(".")[2] for base in cls.bases]
                parent = parents[0] if parents else "Exception"
            else:
                parent = _BUILTIN_PARENT.get(current)
            if not parent or parent in seen:
                break
            chain.append(parent)
            seen.add(parent)
            current = parent
        return chain

    def _lookup(self, name: str) -> ClassInfo | None:
        for cls in self._graph.classes.values():
            if cls.name == name:
                return cls
        return None

    def caught_by(self, raised: str, handler_types: set[str] | None) -> bool:
        """Would ``except <handler_types>`` catch a raised ``raised``?

        ``None`` means a bare ``except:`` (catches everything).
        """
        if handler_types is None:
            return True
        chain = set(self.base_chain(raised))
        return bool(chain & handler_types)

    def is_sanctioned(self, raised: str) -> bool:
        return SANCTIONED in self.base_chain(raised)


class FaultHookRaisesPass(Rule):
    name = "fault-hook-raises"
    description = (
        "on_fault hooks must not raise anything but FaultError past the "
        "engine's fault accounting"
    )
    scope = ("src/repro",)

    def check_program(self, program: ProgramContext) -> None:
        graph = program.graph
        model = _ExceptionModel(graph)
        summaries = self._fixpoint(graph, model)
        for function in graph.all_functions():
            if function.name != "on_fault" or not function.is_method:
                continue
            summary = summaries.get(function.qualname)
            if summary is None:
                continue
            for exc, chain in sorted(summary.escapes.items()):
                if model.is_sanctioned(exc):
                    continue
                via = f" (via {chain})" if chain else ""
                program.report(
                    self,
                    function.module,
                    function.node,
                    f"on_fault may raise {exc}{via}; catch it and re-raise "
                    "FaultError so the engine's fault accounting survives",
                )

    # ------------------------------------------------------------------
    # Escape-set fixpoint
    # ------------------------------------------------------------------

    def _fixpoint(
        self, graph: ProgramGraph, model: _ExceptionModel
    ) -> dict[str, _Summary]:
        summaries: dict[str, _Summary] = {
            f.qualname: _Summary() for f in graph.all_functions()
        }
        call_cache: dict[str, list[CallSite]] = {}
        changed = True
        rounds = 0
        while changed and rounds < 20:
            changed = False
            rounds += 1
            for function in graph.all_functions():
                if function.qualname not in call_cache:
                    call_cache[function.qualname] = list(
                        graph.resolved_calls(function)
                    )
                new = self._escapes_of(
                    graph, model, function, summaries, call_cache[function.qualname]
                )
                current = summaries[function.qualname].escapes
                for exc, chain in new.items():
                    if exc not in current:
                        current[exc] = chain
                        changed = True
        return summaries

    def _escapes_of(
        self,
        graph: ProgramGraph,
        model: _ExceptionModel,
        function: FunctionInfo,
        summaries: dict[str, _Summary],
        sites: list[CallSite],
    ) -> dict[str, str]:
        module = graph.modules[function.module]
        targets_by_call: dict[int, CallSite] = {id(s.call): s for s in sites}

        def exc_name(node: ast.expr | None) -> str | None:
            if node is None:
                return None
            target = node.func if isinstance(node, ast.Call) else node
            canonical = module.canonical(target)
            if canonical is None:
                return None
            return canonical.rpartition(".")[2]

        def call_escapes(call: ast.Call) -> dict[str, str]:
            site = targets_by_call.get(id(call))
            if site is None:
                return {}
            escaped: dict[str, str] = {}
            for target in site.targets:
                functions: list[FunctionInfo] = []
                if isinstance(target, FunctionInfo):
                    functions.append(target)
                elif isinstance(target, ClassInfo):
                    for ctor_name in ("__init__", "__post_init__"):
                        ctor = graph.method_on(target, ctor_name)
                        if ctor is not None:
                            functions.append(ctor)
                for callee in functions:
                    summary = summaries.get(callee.qualname)
                    if summary is None:
                        continue
                    for exc, chain in summary.escapes.items():
                        hop = callee.qualname.rpartition(".")[2]
                        owner = (
                            f"{callee.class_name}.{hop}"
                            if callee.class_name
                            else hop
                        )
                        new_chain = owner if not chain else f"{owner} <- {chain}"
                        escaped.setdefault(exc, new_chain)
            return escaped

        def body_escapes(
            body: list[ast.stmt], handler_ctx: set[str] | None
        ) -> dict[str, str]:
            escaped: dict[str, str] = {}
            for statement in body:
                escaped.update(stmt_escapes(statement, handler_ctx))
            return escaped

        def expr_escapes(statement: ast.stmt) -> dict[str, str]:
            escaped: dict[str, str] = {}
            for field_name, value in ast.iter_fields(statement):
                if field_name in ("body", "orelse", "finalbody", "handlers", "cases"):
                    continue
                nodes = value if isinstance(value, list) else [value]
                for item in nodes:
                    if isinstance(item, ast.AST):
                        for sub in ast.walk(item):
                            if isinstance(sub, ast.Call):
                                escaped.update(call_escapes(sub))
            return escaped

        def stmt_escapes(
            statement: ast.stmt, handler_ctx: set[str] | None
        ) -> dict[str, str]:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                return {}
            escaped = expr_escapes(statement)
            if isinstance(statement, ast.Raise):
                if statement.exc is None:
                    # Bare re-raise: escapes whatever the enclosing
                    # handler caught.
                    if handler_ctx:
                        for caught in handler_ctx:
                            escaped.setdefault(caught, "")
                else:
                    name = exc_name(statement.exc)
                    if name is not None:
                        escaped.setdefault(name, "")
            elif isinstance(statement, ast.Try):
                from_body = body_escapes(statement.body, handler_ctx)
                for handler in statement.handlers:
                    types = _handler_types(handler, exc_name)
                    caught_here = {
                        exc
                        for exc in from_body
                        if model.caught_by(exc, types)
                    }
                    for exc in caught_here:
                        from_body.pop(exc, None)
                    ctx = (
                        caught_here
                        or (types if types is not None else set())
                        or {"Exception"}
                    )
                    escaped.update(body_escapes(handler.body, ctx))
                escaped.update(from_body)
                escaped.update(body_escapes(statement.orelse, handler_ctx))
                escaped.update(body_escapes(statement.finalbody, handler_ctx))
            else:
                for field_name in ("body", "orelse", "finalbody"):
                    sub_body = getattr(statement, field_name, None)
                    if isinstance(sub_body, list):
                        escaped.update(body_escapes(sub_body, handler_ctx))
                cases = getattr(statement, "cases", None)
                if isinstance(cases, list):
                    for case in cases:
                        escaped.update(body_escapes(case.body, handler_ctx))
            return escaped

        return body_escapes(function.node.body, None)


def _handler_types(handler, exc_name) -> set[str] | None:  # type: ignore[no-untyped-def]
    """Class names an ``except`` clause catches; ``None`` for bare."""
    if handler.type is None:
        return None
    types: set[str] = set()
    clauses = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for clause in clauses:
        name = exc_name(clause)
        if name is not None:
            types.add(name)
    return types or None
