"""``no-cached-tensor-mutation``: cached cost tensors are immutable.

Cache surfaces such as
:meth:`~repro.core.physical.PlanLoadTable.load_matrix` memoize arrays
that every downstream decision reads by reference.  One in-place write
corrupts all of them at once, and NumPy views make it easy to do so
accidentally three variables away from the cache access.  The names
``grid_matrix``, ``cost_tensor`` and ``plan_ranks`` stay reserved for
such surfaces.

The arrays themselves are frozen with ``setflags(write=False)`` (the
runtime layer of this invariant); this rule is the static layer that
catches the write *before* it becomes a runtime crash in some distant
code path.  Per function, it runs a simple forward taint pass:

* reading ``*.grid_matrix()``, ``*.cost_tensor``, ``*.plan_ranks`` or
  ``*.load_matrix`` taints the result;
* assignment propagates taint; subscripting/attribute access on a
  tainted value stays tainted (views alias the cache);
* ``.copy()`` / ``.astype()`` / ``np.array(...)`` and reductions break
  taint (they allocate fresh storage).

Flagged: augmented assignment to a tainted target, item/slice stores
into a tainted array, in-place methods (``fill``, ``sort``, ...) on a
tainted receiver, and ``setflags(write=True)`` on anything tainted.
The pass is intra-procedural and flow-insensitive across branches —
deliberately simple, with the runtime freeze as the backstop.
"""

from __future__ import annotations

import ast

from repro.analysis.rules import FileContext, Rule

__all__ = ["NoCachedTensorMutationRule"]

#: Attribute/method names whose read yields a cached (shared) array.
_SOURCES = frozenset(
    {"grid_matrix", "cost_tensor", "plan_ranks", "load_matrix"}
)

#: ndarray methods that mutate the receiver in place.
_INPLACE_METHODS = frozenset(
    {"fill", "sort", "put", "itemset", "partition", "resize", "byteswap"}
)

#: Calls on a tainted value that return freshly-allocated storage.
_TAINT_BREAKERS = frozenset(
    {
        "copy",
        "astype",
        "tolist",
        "sum",
        "mean",
        "min",
        "max",
        "argmin",
        "argmax",
        "item",
    }
)


class NoCachedTensorMutationRule(Rule):
    name = "no-cached-tensor-mutation"
    description = (
        "in-place writes to arrays flowing from a cache surface "
        "(load_matrix, ...) corrupt every consumer"
    )
    scope = ("src/repro",)

    def check(self, context: FileContext) -> None:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(context, node)

    def _check_function(
        self, context: FileContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        tainted: set[str] = set()
        for statement in self._statements(func):
            self._apply_statement(context, statement, tainted)

    def _statements(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[ast.stmt]:
        """All statements of ``func`` in source order, excluding nested
        function/class bodies (they get their own pass)."""
        collected: list[ast.stmt] = []

        def visit(body: list[ast.stmt]) -> None:
            for statement in body:
                collected.append(statement)
                for field_name, value in ast.iter_fields(statement):
                    if isinstance(
                        statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        continue
                    if field_name in ("body", "orelse", "finalbody"):
                        if isinstance(value, list):
                            visit(value)
                    elif field_name == "handlers" and isinstance(value, list):
                        for handler in value:
                            visit(handler.body)
                    elif field_name == "cases" and isinstance(value, list):
                        for case in value:
                            visit(case.body)

        visit(func.body)
        return collected

    def _apply_statement(
        self, context: FileContext, statement: ast.stmt, tainted: set[str]
    ) -> None:
        for call in self._calls_in(statement):
            self._check_call(context, call, tainted)
        if isinstance(statement, ast.Assign):
            value_tainted = self._is_tainted(statement.value, tainted)
            for target in statement.targets:
                self._bind_target(context, target, value_tainted, tainted)
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            value_tainted = self._is_tainted(statement.value, tainted)
            self._bind_target(context, statement.target, value_tainted, tainted)
        elif isinstance(statement, ast.AugAssign):
            if self._target_reaches_cache(statement.target, tainted):
                context.report(
                    self,
                    statement,
                    "augmented assignment mutates a cached tensor in place; "
                    "work on a .copy()",
                )
        elif isinstance(statement, ast.For):
            # ``for row in cache.cost_tensor`` hands out row views.
            self._bind_target(
                context,
                statement.target,
                self._is_tainted(statement.iter, tainted),
                tainted,
            )

    def _bind_target(
        self,
        context: FileContext,
        target: ast.expr,
        value_tainted: bool,
        tainted: set[str],
    ) -> None:
        if isinstance(target, ast.Name):
            if value_tainted:
                tainted.add(target.id)
            else:
                tainted.discard(target.id)
        elif isinstance(target, ast.Subscript):
            if self._is_tainted(target.value, tainted):
                context.report(
                    self,
                    target,
                    "item/slice store into a cached tensor; it is shared by "
                    "every consumer — write to a .copy()",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(context, element, value_tainted, tainted)

    def _target_reaches_cache(self, target: ast.expr, tainted: set[str]) -> bool:
        if isinstance(target, ast.Name):
            return target.id in tainted
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            return self._is_tainted(target.value, tainted)
        return False

    def _calls_in(self, statement: ast.stmt) -> list[ast.Call]:
        calls: list[ast.Call] = []
        # Only the statement's own expressions — nested suites are
        # visited as separate statements by _statements().
        for field_name, value in ast.iter_fields(statement):
            if field_name in ("body", "orelse", "finalbody", "handlers", "cases"):
                continue
            nodes = value if isinstance(value, list) else [value]
            for item in nodes:
                if isinstance(item, ast.AST):
                    calls.extend(
                        n for n in ast.walk(item) if isinstance(n, ast.Call)
                    )
        return calls

    def _check_call(
        self, context: FileContext, call: ast.Call, tainted: set[str]
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if not self._is_tainted(func.value, tainted):
            return
        if func.attr in _INPLACE_METHODS:
            context.report(
                self,
                call,
                f".{func.attr}() mutates a cached tensor in place; operate "
                "on a .copy()",
            )
        elif func.attr == "setflags" and self._enables_write(call):
            context.report(
                self,
                call,
                "setflags(write=True) re-opens a frozen cached tensor for "
                "writing; copy it instead",
            )

    def _enables_write(self, call: ast.Call) -> bool:
        for keyword in call.keywords:
            if keyword.arg == "write" and not (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value in (False, 0)
            ):
                return True
        if call.args and not (
            isinstance(call.args[0], ast.Constant)
            and call.args[0].value in (False, 0)
        ):
            return True
        return False

    def _is_tainted(self, node: ast.expr, tainted: set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in tainted
        if isinstance(node, ast.Attribute):
            if node.attr in _SOURCES:
                return True
            return self._is_tainted(node.value, tainted)
        if isinstance(node, ast.Subscript):
            return self._is_tainted(node.value, tainted)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _SOURCES:
                    return True
                if func.attr in _TAINT_BREAKERS:
                    return False
                return self._is_tainted(func.value, tainted)
            if isinstance(func, ast.Name) and func.id in ("np", "numpy"):
                return False
            return False
        if isinstance(node, ast.IfExp):
            return self._is_tainted(node.body, tainted) or self._is_tainted(
                node.orelse, tainted
            )
        return False
