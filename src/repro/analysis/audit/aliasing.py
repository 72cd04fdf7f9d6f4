"""``shared-node-state``: no hidden mutable channels between nodes.

RLD's simulated cluster only models a *distributed* system if the
``Node``/``Monitor`` objects are isolated: a dict, list, or set built
once and handed to two node instances (or to one constructor inside a
loop building many) is a shared-memory channel no real deployment has,
and a determinism hazard besides — one node's in-place update silently
changes what another observes.

The pass computes, per program class, which constructor parameters are
*retained* (stored on ``self`` without an intervening copy — dataclass
fields always are; ``dict(p)``/``list(p)``/``p.copy()`` wrappers break
retention), then flags any locally-built mutable object that is passed
to a retaining parameter of

* two or more node-like constructors (class name containing ``Node``
  or ``Monitor``, directly or via a program base class), or
* one node-like constructor *inside a loop* — the same object ends up
  inside every instance the loop builds.

Approximations: only mutables built in the reporting function are
tracked (a dict threaded through parameters is invisible — see
docs/static-analysis.md), and retention is judged from direct ``self``
stores in ``__init__``.
"""

from __future__ import annotations

import ast

from repro.analysis.graph import (
    COPY_WRAPPERS,
    ClassInfo,
    FunctionInfo,
    ProgramGraph,
)
from repro.analysis.program import ProgramContext
from repro.analysis.rules import Rule

__all__ = ["SharedNodeStatePass"]

#: Constructor calls to these builtins (and display literals) produce a
#: locally-owned mutable object worth tracking.
_MUTABLE_BUILDERS = frozenset({"dict", "list", "set", "defaultdict", "deque"})


def _node_like(graph: ProgramGraph, cls: ClassInfo) -> bool:
    if "Node" in cls.name or "Monitor" in cls.name:
        return True
    return graph.inherits_from(cls, "Node") or any(
        "Node" in base.rpartition(".")[2] or "Monitor" in base.rpartition(".")[2]
        for base in cls.bases
    )


def retained_params(cls: ClassInfo) -> set[str]:
    """``__init__`` parameters stored on ``self`` without a copy."""
    if cls.is_dataclass:
        return set(cls.init_params())
    init = cls.methods.get("__init__")
    if init is None:
        return set()
    params = {p.arg for p in init.parameters()}
    retained: set[str] = set()
    for node in ast.walk(init.node):
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not any(
            isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
            for t in targets
        ):
            continue
        for name in _retaining_names(value):
            if name in params:
                retained.add(name)
    return retained


def _retaining_names(value: ast.expr) -> set[str]:
    """Parameter names ``value`` would store *by reference*."""
    if isinstance(value, ast.Name):
        return {value.id}
    if isinstance(value, ast.BoolOp):  # ``p or default`` retains p
        names: set[str] = set()
        for operand in value.values:
            names |= _retaining_names(operand)
        return names
    if isinstance(value, ast.IfExp):
        return _retaining_names(value.body) | _retaining_names(value.orelse)
    if isinstance(value, ast.Call):
        func = value.func
        wrapper = func.id if isinstance(func, ast.Name) else None
        if wrapper in COPY_WRAPPERS:
            return set()  # fresh storage
        if isinstance(func, ast.Attribute) and func.attr in ("copy", "deepcopy"):
            return set()
        return set()  # other calls: assume they build something new
    return set()


class SharedNodeStatePass(Rule):
    name = "shared-node-state"
    description = (
        "a mutable object reachable from more than one Node/Monitor "
        "instance is hidden shared state between 'distributed' nodes"
    )
    scope = ("src/repro",)

    def check_program(self, program: ProgramContext) -> None:
        graph = program.graph
        retain_cache: dict[str, set[str]] = {}
        for function in graph.all_functions():
            self._check_function(program, graph, function, retain_cache)

    def _check_function(
        self,
        program: ProgramContext,
        graph: ProgramGraph,
        function: FunctionInfo,
        retain_cache: dict[str, set[str]],
    ) -> None:
        mutables = self._local_mutables(function)
        if not mutables:
            return
        #: mutable name -> list of (call node, inside_loop, class name)
        uses: dict[str, list[tuple[ast.Call, bool, str]]] = {}
        for site_call, in_loop in self._calls_with_loop_depth(function.node):
            cls = self._constructed_class(graph, function, site_call)
            if cls is None or not _node_like(graph, cls):
                continue
            if cls.qualname not in retain_cache:
                retain_cache[cls.qualname] = retained_params(cls)
            retained = retain_cache[cls.qualname]
            if not retained:
                continue
            params = cls.init_params()
            for position, arg in enumerate(site_call.args):
                if isinstance(arg, ast.Name) and arg.id in mutables:
                    if position < len(params) and params[position] in retained:
                        uses.setdefault(arg.id, []).append(
                            (site_call, in_loop, cls.name)
                        )
            for keyword in site_call.keywords:
                if (
                    keyword.arg in retained
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id in mutables
                ):
                    uses.setdefault(keyword.value.id, []).append(
                        (site_call, in_loop, cls.name)
                    )
        for name, sites in uses.items():
            loop_sites = [s for s in sites if s[1]]
            if len(sites) >= 2:
                call, _, cls_name = sites[1]
                others = sorted({s[2] for s in sites})
                program.report(
                    self,
                    function.module,
                    call,
                    f"mutable {name!r} is retained by {len(sites)} node-like "
                    f"constructors ({', '.join(others)}); each instance must "
                    "get its own copy",
                )
            elif loop_sites:
                call, _, cls_name = loop_sites[0]
                program.report(
                    self,
                    function.module,
                    call,
                    f"mutable {name!r} is retained by {cls_name} constructed "
                    "in a loop: every instance shares the same object — copy "
                    "per iteration",
                )

    def _local_mutables(self, function: FunctionInfo) -> set[str]:
        mutables: set[str] = set()
        for node in ast.walk(function.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if self._builds_mutable(node.value):
                mutables.add(target.id)
            else:
                mutables.discard(target.id)
        return mutables

    @staticmethod
    def _builds_mutable(value: ast.expr) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return True
        if isinstance(value, (ast.DictComp, ast.ListComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in _MUTABLE_BUILDERS
        return False

    def _calls_with_loop_depth(
        self, func_node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[tuple[ast.Call, bool]]:
        found: list[tuple[ast.Call, bool]] = []

        def visit(node: ast.AST, in_loop: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # nested defs get their own pass
                child_in_loop = in_loop or isinstance(
                    child, (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                )
                if isinstance(child, ast.Call):
                    found.append((child, child_in_loop))
                visit(child, child_in_loop)

        visit(func_node, False)
        return found

    def _constructed_class(
        self, graph: ProgramGraph, function: FunctionInfo, call: ast.Call
    ) -> ClassInfo | None:
        module = graph.modules[function.module]
        canonical = module.canonical(call.func)
        if canonical is None:
            return None
        for candidate in (f"{function.module}.{canonical}", canonical):
            resolved = graph.resolve(candidate)
            if resolved is not None and resolved in graph.classes:
                return graph.classes[resolved]
        return None
