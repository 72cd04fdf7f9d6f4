"""``tensor-escape``: cached tensors stay frozen across module lines.

The intra-file ``no-cached-tensor-mutation`` rule catches a function
that reads ``cache.cost_tensor`` and writes into it.  It cannot see

* a *producer* — a function or property named like a cache surface
  (``grid_matrix``, ``cost_tensor``, ``plan_ranks``, ``load_matrix``) — that hands out an array it never froze with
  ``setflags(write=False)`` or ``.copy()``; nor
* a *consumer* in another module that mutates an array it received
  from a helper which aliases the cache (``def costs(c): return
  c.cost_tensor`` in module A, ``costs(c)[0] = 1`` in module B).

This pass adds both, on top of the program graph:

1. **Producer freeze check** — for every function/method whose name is
   a cache surface, every returned value must be provably frozen: an
   attribute some assignment in the class froze, a local that was
   frozen (including dict-of-arrays frozen value-by-value via ``for v
   in d.values(): v.setflags(write=False)``), or a fresh copy.
2. **Interprocedural consumer check** — a fixpoint computes, per
   function, whether its return value aliases a cache surface; call
   results from alias-returning functions are then treated as tainted
   in every caller, and in-place writes to them are findings.  Taint
   seeded *only* through call edges, so intra-file mutations stay the
   linter's report and are never double-counted here.

Approximations (see docs/static-analysis.md): attribute freezes are
class-local and flow-insensitive (a freeze anywhere in the class
counts); aliasing through containers other than the returned value is
not tracked; the runtime ``setflags(write=False)`` freeze remains the
backstop for what the statics miss.
"""

from __future__ import annotations

import ast

from repro.analysis.checks.tensor_mutation import (
    _INPLACE_METHODS,
    _SOURCES,
    _TAINT_BREAKERS,
)
from repro.analysis.graph import ClassInfo, FunctionInfo, ProgramGraph
from repro.analysis.program import AuditPass, ProgramContext

__all__ = ["TensorEscapePass"]

#: Function/method/property names that are cache surfaces: their return
#: value is handed to every consumer by reference.
SURFACE_NAMES = _SOURCES


def _is_freeze_call(call: ast.Call) -> bool:
    """``x.setflags(write=False)``?"""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "setflags"):
        return False
    for keyword in call.keywords:
        if keyword.arg == "write":
            return isinstance(keyword.value, ast.Constant) and keyword.value.value in (
                False,
                0,
            )
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value in (False, 0)
    return False


def _self_attr(node: ast.expr) -> str | None:
    """``self.X`` -> ``X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _ClassFreezes:
    """Which locals and ``self`` attributes a class provably freezes."""

    def __init__(self, cls: ClassInfo) -> None:
        self.frozen_attrs: set[str] = set()
        #: frozen locals per method qualname.
        self.frozen_locals: dict[str, set[str]] = {}
        for method in cls.methods.values():
            self._scan(method)

    def _scan(self, method: FunctionInfo) -> None:
        frozen: set[str] = set()
        self.frozen_locals[method.qualname] = frozen
        for node in ast.walk(method.node):
            if isinstance(node, ast.Call) and _is_freeze_call(node):
                receiver = node.func.value  # type: ignore[union-attr]
                attr = _self_attr(receiver)
                if attr is not None:
                    self.frozen_attrs.add(attr)
                elif isinstance(receiver, ast.Name):
                    frozen.add(receiver.id)
            elif isinstance(node, ast.For):
                # ``for v in d.values(): v.setflags(write=False)`` freezes
                # the dict's values; treat ``d`` as frozen.
                self._scan_values_freeze(node, frozen)
        # Second sweep: an attribute assigned from a frozen local (or a
        # fresh copy) is frozen; a subscript store of a frozen local
        # into an attribute container freezes the container.
        for node in ast.walk(method.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            value_frozen = (
                isinstance(node.value, ast.Name) and node.value.id in frozen
            ) or self._is_fresh(node.value)
            if not value_frozen:
                continue
            attr = _self_attr(target)
            if attr is not None:
                self.frozen_attrs.add(attr)
            elif isinstance(target, ast.Subscript):
                container = _self_attr(target.value)
                if container is not None:
                    self.frozen_attrs.add(container)

    def _scan_values_freeze(self, loop: ast.For, frozen: set[str]) -> None:
        if not (
            isinstance(loop.iter, ast.Call)
            and isinstance(loop.iter.func, ast.Attribute)
            and loop.iter.func.attr == "values"
            and isinstance(loop.iter.func.value, ast.Name)
            and isinstance(loop.target, ast.Name)
        ):
            return
        item = loop.target.id
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and _is_freeze_call(node)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == item
            ):
                frozen.add(loop.iter.func.value.id)
                return

    @staticmethod
    def _is_fresh(value: ast.expr) -> bool:
        """Copies and reductions are fresh storage, no freeze needed."""
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _TAINT_BREAKERS
        )


class TensorEscapePass(AuditPass):
    name = "tensor-escape"
    description = (
        "cache-surface producers must freeze what they return; consumers "
        "must not mutate arrays aliased through helper calls"
    )
    scope = ("src/repro",)

    def check_program(self, program: ProgramContext) -> None:
        graph = program.graph
        self._check_producers(program, graph)
        alias_returners = self._alias_summaries(graph)
        self._check_consumers(program, graph, alias_returners)

    # ------------------------------------------------------------------
    # Producer half
    # ------------------------------------------------------------------

    def _check_producers(self, program: ProgramContext, graph: ProgramGraph) -> None:
        freezes_by_class: dict[str, _ClassFreezes] = {}
        for function in graph.all_functions():
            if function.name not in SURFACE_NAMES:
                continue
            owner = (
                f"{function.module}.{function.class_name}"
                if function.class_name
                else None
            )
            freezes: _ClassFreezes | None = None
            if owner is not None and owner in graph.classes:
                if owner not in freezes_by_class:
                    freezes_by_class[owner] = _ClassFreezes(graph.classes[owner])
                freezes = freezes_by_class[owner]
            self._check_surface(program, function, freezes)

    def _check_surface(
        self,
        program: ProgramContext,
        function: FunctionInfo,
        freezes: _ClassFreezes | None,
    ) -> None:
        frozen_attrs = freezes.frozen_attrs if freezes else set()
        frozen_locals = (
            freezes.frozen_locals.get(function.qualname, set())
            if freezes
            else self._module_function_frozen_locals(function)
        )
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            if self._return_is_safe(node.value, frozen_attrs, frozen_locals):
                continue
            program.report(
                self,
                function.module,
                node,
                f"cache surface {function.name}() returns an array that is "
                "never frozen; call setflags(write=False) before handing it "
                "out, or return a .copy()",
            )

    def _module_function_frozen_locals(self, function: FunctionInfo) -> set[str]:
        frozen: set[str] = set()
        for node in ast.walk(function.node):
            if (
                isinstance(node, ast.Call)
                and _is_freeze_call(node)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
            ):
                frozen.add(node.func.value.id)
        return frozen

    def _return_is_safe(
        self, value: ast.expr, frozen_attrs: set[str], frozen_locals: set[str]
    ) -> bool:
        if isinstance(value, ast.Constant):
            return True
        attr = _self_attr(value)
        if attr is not None:
            return attr in frozen_attrs
        if isinstance(value, ast.Name):
            return value.id in frozen_locals
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute) and func.attr in _TAINT_BREAKERS:
                return True
            # Any other call: fresh storage from some builder — the
            # builder is its own producer if it is surface-named.
            return True
        if isinstance(value, (ast.Tuple, ast.List)):
            return all(
                self._return_is_safe(element, frozen_attrs, frozen_locals)
                for element in value.elts
            )
        return False

    # ------------------------------------------------------------------
    # Consumer half
    # ------------------------------------------------------------------

    def _alias_summaries(self, graph: ProgramGraph) -> set[str]:
        """Qualnames of functions whose return value aliases a cache."""
        alias: set[str] = set()
        changed = True
        passes = 0
        while changed and passes < 10:
            changed = False
            passes += 1
            for function in graph.all_functions():
                if function.qualname in alias:
                    continue
                if self._returns_alias(graph, function, alias):
                    alias.add(function.qualname)
                    changed = True
        return alias

    def _returns_alias(
        self, graph: ProgramGraph, function: FunctionInfo, alias: set[str]
    ) -> bool:
        call_targets = self._call_alias_map(graph, function, alias)
        tainted = self._tainted_locals(function, call_targets, seed_sources=True)
        for node in ast.walk(function.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if self._expr_tainted(
                    node.value, tainted, call_targets, seed_sources=True
                ):
                    return True
        return False

    def _call_alias_map(
        self, graph: ProgramGraph, function: FunctionInfo, alias: set[str]
    ) -> dict[int, str]:
        """AST id of each call whose (resolved) target returns an alias,
        mapped to the target's qualname (for finding messages)."""
        targets: dict[int, str] = {}
        for site in graph.resolved_calls(function):
            for target in site.targets:
                if isinstance(target, FunctionInfo) and target.qualname in alias:
                    targets[id(site.call)] = target.qualname
                    break
        return targets

    def _tainted_locals(
        self,
        function: FunctionInfo,
        call_targets: dict[int, str],
        *,
        seed_sources: bool,
    ) -> set[str]:
        """Names bound (flow-insensitively) to a cache-aliasing value."""
        tainted: set[str] = set()
        for _ in range(3):  # tiny fixpoint for chained assignments
            before = len(tainted)
            for node in ast.walk(function.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name) and self._expr_tainted(
                        node.value, tainted, call_targets, seed_sources=seed_sources
                    ):
                        tainted.add(target.id)
            if len(tainted) == before:
                break
        return tainted

    def _expr_tainted(
        self,
        node: ast.expr,
        tainted: set[str],
        call_targets: dict[int, str],
        *,
        seed_sources: bool,
    ) -> bool:
        if isinstance(node, ast.Name):
            return node.id in tainted
        if isinstance(node, ast.Attribute):
            if seed_sources and node.attr in _SOURCES:
                return True
            return self._expr_tainted(
                node.value, tainted, call_targets, seed_sources=seed_sources
            )
        if isinstance(node, ast.Subscript):
            return self._expr_tainted(
                node.value, tainted, call_targets, seed_sources=seed_sources
            )
        if isinstance(node, ast.Call):
            if id(node) in call_targets:
                return True
            func = node.func
            if isinstance(func, ast.Attribute):
                if seed_sources and func.attr in _SOURCES:
                    return True
                if func.attr in _TAINT_BREAKERS:
                    return False
                return self._expr_tainted(
                    func.value, tainted, call_targets, seed_sources=seed_sources
                )
            return False
        if isinstance(node, ast.IfExp):
            return self._expr_tainted(
                node.body, tainted, call_targets, seed_sources=seed_sources
            ) or self._expr_tainted(
                node.orelse, tainted, call_targets, seed_sources=seed_sources
            )
        return False

    def _check_consumers(
        self, program: ProgramContext, graph: ProgramGraph, alias: set[str]
    ) -> None:
        for function in graph.all_functions():
            call_targets = self._call_alias_map(graph, function, alias)
            if not call_targets:
                continue
            # Taint flows ONLY from alias-returning calls here: direct
            # ``.cost_tensor`` mutations are the intra-file linter's
            # finding and must not be double-reported.
            tainted = self._tainted_locals(function, call_targets, seed_sources=False)
            producer = next(iter(sorted(call_targets.values())))
            self._report_mutations(
                program, function, tainted, call_targets, producer
            )

    def _report_mutations(
        self,
        program: ProgramContext,
        function: FunctionInfo,
        tainted: set[str],
        call_targets: dict[int, str],
        producer: str,
    ) -> None:
        def is_tainted(expr: ast.expr) -> bool:
            return self._expr_tainted(
                expr, tainted, call_targets, seed_sources=False
            )

        for node in ast.walk(function.node):
            if isinstance(node, ast.AugAssign):
                target = node.target
                base = (
                    target.value
                    if isinstance(target, (ast.Subscript, ast.Attribute))
                    else target
                )
                if is_tainted(base):
                    program.report(
                        self,
                        function.module,
                        node,
                        f"augmented assignment mutates an array aliased from "
                        f"{producer}(); copy before writing",
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and is_tainted(
                        target.value
                    ):
                        program.report(
                            self,
                            function.module,
                            target,
                            f"item/slice store into an array aliased from "
                            f"{producer}(); it is cache-backed — write to a "
                            ".copy()",
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if not is_tainted(node.func.value):
                    continue
                if node.func.attr in _INPLACE_METHODS:
                    program.report(
                        self,
                        function.module,
                        node,
                        f".{node.func.attr}() mutates an array aliased from "
                        f"{producer}(); operate on a .copy()",
                    )
                elif node.func.attr == "setflags" and not _is_freeze_call(node):
                    program.report(
                        self,
                        function.module,
                        node,
                        f"setflags(write=True) re-opens an array aliased from "
                        f"{producer}(); copy it instead",
                    )
