"""``shared-rng``: one Generator never feeds two per-node components.

Determinism in this codebase means *per-component* determinism: each
stochastic part (a workload profile, a node's arrival process, the
monitor's jitter) owns an independent child generator derived from one
root seed (``repro.util.rng``).  Handing the *same*
``numpy.random.Generator`` object to two components couples their draw
sequences: whichever component happens to draw first changes what the
other sees, so results depend on call order — the interleaving bug
class that seeded replay cannot catch because the seed never changed.

Two findings, computed over the program graph:

* **bare store** — a constructor/method parameter that is a Generator
  (annotation mentions ``Generator``, or the parameter is literally
  named ``rng``) assigned to ``self`` directly.  The sanctioned idiom
  is an integer seed (``derive_rng(seed)`` builds a fresh stream) or an
  explicit child (``SeedSequenceFactory.child()``); storing the
  caller's generator couples the instance to every other consumer of
  that object.
* **shared across instances** — one Generator-typed local passed to
  retaining generator parameters of two or more constructors, or of
  one constructor called in a loop.  Retention here includes stores
  *through* ``derive_rng`` — it passes Generator arguments through
  unchanged by design, so ``self._rng = derive_rng(rng_param)`` still
  shares the caller's stream.

``repro.util.rng`` itself is allowlisted: pass-through is its job.
"""

from __future__ import annotations

import ast

from repro.analysis.graph import ClassInfo, FunctionInfo, ProgramGraph
from repro.analysis.program import ProgramContext
from repro.analysis.rules import Rule

__all__ = ["SharedRngPass"]

#: Parameter names treated as generator-valued even without annotation.
_RNG_NAMES = frozenset({"rng", "generator"})


def _is_generator_param(param: ast.arg) -> bool:
    if param.arg in _RNG_NAMES:
        return True
    if param.annotation is None:
        return False
    return "Generator" in ast.unparse(param.annotation)


def _is_derive_call(value: ast.expr) -> bool:
    """``derive_rng(...)`` however it is spelled."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    return name == "derive_rng"


def rng_retained_params(cls: ClassInfo) -> set[str]:
    """``__init__`` generator params the instance keeps a live alias to.

    A bare ``self.x = p`` store retains, and so does ``self.x =
    derive_rng(p)``: for a Generator argument ``derive_rng`` is the
    identity, so the stream is still the caller's.
    """
    init = cls.methods.get("__init__")
    if init is None:
        return set()
    gen_params = {p.arg for p in init.parameters() if _is_generator_param(p)}
    if not gen_params:
        return set()
    retained: set[str] = set()
    for node in ast.walk(init.node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in gen_params:
            retained.add(value.id)
        elif _is_derive_call(value):
            assert isinstance(value, ast.Call)
            for arg in value.args:
                if isinstance(arg, ast.Name) and arg.id in gen_params:
                    retained.add(arg.id)
    return retained


class SharedRngPass(Rule):
    name = "shared-rng"
    description = (
        "a seeded Generator handed to per-node code must go through "
        "derive_rng children, never be shared between instances"
    )
    scope = (
        "src/repro/engine",
        "src/repro/core",
        "src/repro/runtime",
        "src/repro/workloads",
    )
    allow = ("src/repro/util/rng.py",)

    def check_program(self, program: ProgramContext) -> None:
        graph = program.graph
        retain_cache: dict[str, set[str]] = {}
        for function in graph.all_functions():
            self._check_bare_store(program, function)
            self._check_sharing(program, graph, function, retain_cache)

    # ------------------------------------------------------------------
    # Bare self-store of a caller's generator
    # ------------------------------------------------------------------

    def _check_bare_store(
        self, program: ProgramContext, function: FunctionInfo
    ) -> None:
        if not function.is_method:
            return
        gen_params = {
            p.arg for p in function.parameters() if _is_generator_param(p)
        }
        if not gen_params:
            return
        for node in ast.walk(function.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in gen_params:
                program.report(
                    self,
                    function.module,
                    node,
                    f"parameter {node.value.id!r} may be the caller's "
                    "Generator stored by reference; derive an independent "
                    "child (SeedSequenceFactory) or accept an int seed "
                    "through derive_rng",
                )

    # ------------------------------------------------------------------
    # One generator object feeding multiple retaining constructors
    # ------------------------------------------------------------------

    def _check_sharing(
        self,
        program: ProgramContext,
        graph: ProgramGraph,
        function: FunctionInfo,
        retain_cache: dict[str, set[str]],
    ) -> None:
        gen_locals = self._generator_locals(function)
        if not gen_locals:
            return
        uses: dict[str, list[tuple[ast.Call, bool, str]]] = {}
        for call, in_loop in self._calls_with_loop_depth(function.node):
            cls = self._constructed_class(graph, function, call)
            if cls is None:
                continue
            if cls.qualname not in retain_cache:
                retain_cache[cls.qualname] = rng_retained_params(cls)
            retained = retain_cache[cls.qualname]
            if not retained:
                continue
            params = cls.init_params()
            for position, arg in enumerate(call.args):
                if (
                    isinstance(arg, ast.Name)
                    and arg.id in gen_locals
                    and position < len(params)
                    and params[position] in retained
                ):
                    uses.setdefault(arg.id, []).append((call, in_loop, cls.name))
            for keyword in call.keywords:
                if (
                    keyword.arg in retained
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id in gen_locals
                ):
                    uses.setdefault(keyword.value.id, []).append(
                        (call, in_loop, cls.name)
                    )
        for name, sites in uses.items():
            loop_sites = [s for s in sites if s[1]]
            if len(sites) >= 2:
                call, _, _ = sites[1]
                owners = sorted({s[2] for s in sites})
                program.report(
                    self,
                    function.module,
                    call,
                    f"Generator {name!r} is retained by {len(sites)} "
                    f"constructors ({', '.join(owners)}); their draw "
                    "sequences interleave — give each a "
                    "SeedSequenceFactory child",
                )
            elif loop_sites:
                call, _, cls_name = loop_sites[0]
                program.report(
                    self,
                    function.module,
                    call,
                    f"Generator {name!r} is retained by {cls_name} "
                    "constructed in a loop: every instance shares one draw "
                    "stream — derive a child per iteration",
                )

    def _generator_locals(self, function: FunctionInfo) -> set[str]:
        """Names bound to a Generator: typed params and derive_rng results."""
        names = {
            p.arg for p in function.parameters() if _is_generator_param(p)
        }
        for node in ast.walk(function.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_derive_call(node.value)
            ):
                names.add(node.targets[0].id)
        return names

    # Shared helpers (mirror the aliasing pass's shapes).

    def _calls_with_loop_depth(
        self, func_node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[tuple[ast.Call, bool]]:
        found: list[tuple[ast.Call, bool]] = []

        def visit(node: ast.AST, in_loop: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                child_in_loop = in_loop or isinstance(
                    child,
                    (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
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
