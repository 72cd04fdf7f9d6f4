"""Whole-program structure: import graph, symbol index, call graph.

Per-file rules check invariants one file at a time; the passes in
:mod:`repro.analysis.audit` check invariants that only exist *between*
files — node state shared by two constructors in ``runtime``, an
``on_fault`` hook whose exception originates three calls away in
``engine``.  This module builds the shared substrate those passes
walk:

* :class:`ModuleInfo` — one parsed module with its import bindings
  (absolute *and* relative imports resolved to canonical dotted names).
* :class:`FunctionInfo` / :class:`ClassInfo` — the symbol index over
  every function, method, and class in the analyzed tree, including
  per-class attribute-type inference (``self._loop = EventLoop()``
  types ``_loop`` as ``EventLoop``) and dataclass detection.
* :class:`ProgramGraph` — name resolution through import/re-export
  chains plus :meth:`ProgramGraph.resolved_calls`, the approximate
  call graph.

Call-graph approximations (documented in ``docs/static-analysis.md``):
resolution follows local names, import aliases, ``self``, parameter
annotations, constructor-typed locals, and inferred attribute types;
an attribute call whose receiver stays unknown falls back to matching
the method name across all program classes (capped at
:data:`NAME_FALLBACK_LIMIT` candidates, dunders excluded).  Calls into
code outside the analyzed tree (numpy, the stdlib) are opaque — the
graph neither follows nor invents edges for them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.checks.common import dotted_name

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProgramGraph",
    "build_graph",
    "module_name_for",
]

#: An unresolved attribute call is matched by method name across the
#: program only while at most this many classes define the method —
#: beyond that the name is too generic to make honest edges from.
NAME_FALLBACK_LIMIT = 3

#: Wrappers whose result is fresh storage, not an alias of the argument.
COPY_WRAPPERS = frozenset(
    {
        "dict",
        "list",
        "set",
        "tuple",
        "frozenset",
        "sorted",
        "copy",
        "deepcopy",
        "MappingProxyType",
    }
)


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed program."""

    name: str
    path: Path
    relpath: str
    tree: ast.Module
    source: str
    #: local name -> canonical dotted target (``np`` -> ``numpy``,
    #: ``SimNode`` -> ``repro.engine.node.SimNode``).
    bindings: dict[str, str] = field(default_factory=dict)

    def canonical(self, node: ast.AST) -> str | None:
        """Canonical dotted name of an expression through the bindings."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved = self.bindings.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved


@dataclass
class FunctionInfo:
    """One function or method in the program."""

    qualname: str
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def parameters(self) -> list[ast.arg]:
        """Positional/keyword parameters, ``self`` excluded for methods."""
        args = self.node.args
        params = list(args.posonlyargs) + list(args.args)
        if self.is_method and params:
            params = params[1:]
        return params + list(args.kwonlyargs)


@dataclass
class ClassInfo:
    """One class in the program, with approximate structure."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: Canonical dotted names of base classes (may be outside the program).
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Inferred instance-attribute types: attr name -> class qualname.
    attr_types: dict[str, str] = field(default_factory=dict)
    is_dataclass: bool = False

    @property
    def name(self) -> str:
        return self.node.name

    def init_params(self) -> list[str]:
        """``__init__`` parameter names (dataclasses: field names)."""
        init = self.methods.get("__init__")
        if init is not None:
            return [p.arg for p in init.parameters()]
        if self.is_dataclass:
            names = []
            for statement in self.node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    names.append(statement.target.id)
            return names
        return []


@dataclass
class CallSite:
    """One resolved call edge: the AST call plus its targets.

    ``targets`` holds every plausible callee — exactly one for a
    precise resolution, several for a name-fallback match, a class for
    a constructor call (follow its ``__init__`` yourself if needed).
    """

    call: ast.Call
    targets: tuple[FunctionInfo | ClassInfo, ...]
    via_fallback: bool = False


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to the analysis root.

    A leading ``src/`` component is dropped (the repo's layout), and a
    package ``__init__.py`` maps to the package name itself.  A file
    outside the root is named by its absolute path.
    """
    try:
        parts = list(path.resolve().relative_to(root.resolve()).parts)
    except ValueError:
        parts = list(path.resolve().parts[1:])
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts:
        parts[-1] = parts[-1][: -len(".py")] if parts[-1].endswith(".py") else parts[-1]
    return ".".join(parts)


def _module_bindings(
    tree: ast.Module, module_name: str, *, is_package: bool = False
) -> dict[str, str]:
    """Import bindings with relative imports resolved against the module."""
    bindings: dict[str, str] = {}
    package_parts = module_name.split(".")
    if is_package:
        # ``from . import x`` inside ``pkg/__init__.py`` anchors at
        # ``pkg`` itself, not at its parent; a dummy last component
        # makes the generic ``level`` arithmetic below come out right.
        package_parts = package_parts + ["__init__"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    bindings[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # ``from . import x`` / ``from ..pkg import x`` — the
                # anchor is the containing package, ``level-1`` more
                # levels up.  A module's package is its name minus the
                # last component; ``__init__`` modules are the package.
                anchor = package_parts[: len(package_parts) - node.level]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                bindings[local] = f"{base}.{alias.name}" if base else alias.name
    return bindings


def _decorator_is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    dotted = dotted_name(target)
    return dotted in ("dataclass", "dataclasses.dataclass")


class ProgramGraph:
    """Symbols, imports, and approximate call edges of one program."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: method name -> classes defining it (for the name fallback).
        self._methods_by_name: dict[str, list[ClassInfo]] = {}
        for module in modules.values():
            self._index_module(module)
        for module in modules.values():
            self._infer_attr_types(module)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def _index_module(self, module: ModuleInfo) -> None:
        for statement in module.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}.{statement.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname, module=module.name, node=statement
                )
            elif isinstance(statement, ast.ClassDef):
                self._index_class(module, statement)

    def _index_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        bases = tuple(
            canonical
            for base in node.bases
            if (canonical := module.canonical(base)) is not None
        )
        info = ClassInfo(
            qualname=qualname,
            module=module.name,
            node=node,
            bases=bases,
            is_dataclass=any(
                _decorator_is_dataclass(d) for d in node.decorator_list
            ),
        )
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qualname = f"{qualname}.{statement.name}"
                method = FunctionInfo(
                    qualname=method_qualname,
                    module=module.name,
                    node=statement,
                    class_name=node.name,
                )
                info.methods[statement.name] = method
                self.functions[method_qualname] = method
                if not statement.name.startswith("__"):
                    self._methods_by_name.setdefault(statement.name, []).append(info)
        self.classes[qualname] = info

    def _infer_attr_types(self, module: ModuleInfo) -> None:
        for info in self.classes.values():
            if info.module != module.name:
                continue
            for method in info.methods.values():
                annotations = self._annotation_types(module, method)
                for statement in ast.walk(method.node):
                    target: ast.expr | None = None
                    value: ast.expr | None = None
                    if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                        target, value = statement.targets[0], statement.value
                    elif isinstance(statement, ast.AnnAssign):
                        target, value = statement.target, statement.value
                    if (
                        value is None
                        or not isinstance(target, ast.Attribute)
                        or not isinstance(target.value, ast.Name)
                        or target.value.id != "self"
                    ):
                        continue
                    inferred = self._expr_class(module, value, annotations)
                    if inferred is not None:
                        info.attr_types.setdefault(target.attr, inferred)

    def _annotation_types(
        self, module: ModuleInfo, function: FunctionInfo
    ) -> dict[str, str]:
        """Parameter name -> class qualname, from annotations."""
        types: dict[str, str] = {}
        for param in function.parameters():
            if param.annotation is None:
                continue
            resolved = self._annotation_class(module, param.annotation)
            if resolved is not None:
                types[param.arg] = resolved
        return types

    def _annotation_class(self, module: ModuleInfo, annotation: ast.expr) -> str | None:
        """The single program class an annotation names, unions included."""
        candidates: list[str] = []
        for node in ast.walk(annotation):
            if isinstance(node, (ast.Name, ast.Attribute)):
                resolved = self._resolve_class_ref(module, node)
                if resolved is not None and resolved not in candidates:
                    candidates.append(resolved)
        # ``X | None`` and ``Optional[X]`` resolve; a genuine union of
        # two program classes stays untyped rather than guessing.
        return candidates[0] if len(candidates) == 1 else None

    def _expr_class(
        self, module: ModuleInfo, value: ast.expr, annotations: dict[str, str]
    ) -> str | None:
        """Class qualname an assigned expression evidently produces."""
        if isinstance(value, ast.BoolOp):
            for operand in value.values:
                inferred = self._expr_class(module, operand, annotations)
                if inferred is not None:
                    return inferred
            return None
        if isinstance(value, ast.Name):
            return annotations.get(value.id)
        if isinstance(value, ast.Call):
            return self._resolve_class_ref(module, value.func)
        return None

    def _resolve_class_ref(self, module: ModuleInfo, node: ast.AST) -> str | None:
        """Resolve a class reference, trying the module-local name first."""
        canonical = module.canonical(node)
        if canonical is None:
            return None
        for candidate in (f"{module.name}.{canonical}", canonical):
            resolved = self.resolve(candidate)
            if resolved in self.classes:
                return resolved
        return None

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------

    def resolve(self, dotted: str | None) -> str | None:
        """Follow import/re-export chains to a program symbol key.

        Returns a key of :attr:`functions`, :attr:`classes`, or
        :attr:`modules` — or ``None`` for names outside the program.
        """
        seen: set[str] = set()
        while dotted is not None and dotted not in seen:
            seen.add(dotted)
            if dotted in self.functions or dotted in self.classes:
                return dotted
            head, _, attr = dotted.rpartition(".")
            if not head:
                return dotted if dotted in self.modules else None
            if head in self.modules:
                # ``pkg.mod.sym`` where ``pkg.mod`` is a module: the
                # symbol may be defined there or re-exported onward.
                onward = self.modules[head].bindings.get(attr)
                if onward is not None:
                    dotted = onward
                    continue
                return dotted if dotted in self.modules else None
            # ``pkg.Class.method``-style chains or a re-exported head.
            resolved_head = self.resolve(head)
            if resolved_head is None or resolved_head == head:
                return None
            dotted = f"{resolved_head}.{attr}"
        return None

    def lookup_class(self, ref: str | None) -> ClassInfo | None:
        resolved = self.resolve(ref) if ref else None
        return self.classes.get(resolved) if resolved else None

    def method_on(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Method lookup through program base classes (approximate MRO)."""
        seen: set[str] = set()
        queue: list[ClassInfo] = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                base_info = self.lookup_class(base)
                if base_info is not None:
                    queue.append(base_info)
        return None

    def inherits_from(self, cls: ClassInfo, base_name: str) -> bool:
        """True when ``cls`` (transitively) names ``base_name`` as a base.

        ``base_name`` matches either a canonical dotted name or a bare
        class name (the last component), so fixtures can declare their
        own ``FaultError`` without importing the real one.
        """
        seen: set[str] = set()
        queue: list[ClassInfo] = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            for base in current.bases:
                if base == base_name or base.rpartition(".")[2] == base_name:
                    return True
                base_info = self.lookup_class(base)
                if base_info is not None:
                    queue.append(base_info)
        return False

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------

    def local_types(self, function: FunctionInfo) -> dict[str, str]:
        """Variable name -> class qualname inside one function body.

        Covers ``self``, annotated parameters, and locals assigned from
        a resolved constructor call.  Flow-insensitive: the last
        evident binding wins, which is the usual single-assignment case.
        """
        module = self.modules[function.module]
        types = self._annotation_types(module, function)
        if function.is_method:
            owner = f"{function.module}.{function.class_name}"
            if owner in self.classes:
                types["self"] = owner
        for statement in ast.walk(function.node):
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target = statement.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self._expr_class(module, statement.value, types)
                    if inferred is not None:
                        types[target.id] = inferred
        return types

    def resolved_calls(self, function: FunctionInfo) -> Iterator[CallSite]:
        """Every call in ``function`` with its plausible program targets."""
        module = self.modules[function.module]
        types = self.local_types(function)
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call):
                continue
            site = self._resolve_call(module, node, types)
            if site is not None:
                yield site

    def _resolve_call(
        self, module: ModuleInfo, call: ast.Call, types: dict[str, str]
    ) -> CallSite | None:
        func = call.func
        # Receiver-typed attribute calls: self.x(), param.x(), attr chains.
        if isinstance(func, ast.Attribute):
            receiver_class = self._receiver_class(module, func.value, types)
            if receiver_class is not None:
                method = self.method_on(receiver_class, func.attr)
                if method is not None:
                    return CallSite(call=call, targets=(method,))
                return None
            canonical = module.canonical(func)
            resolved = self.resolve(canonical) if canonical else None
            if resolved is not None:
                target = self.functions.get(resolved) or self.classes.get(resolved)
                if target is not None:
                    return CallSite(call=call, targets=(target,))
            return self._fallback_by_name(call, func.attr)
        # Plain names: local function, imported symbol, or class.
        canonical = module.canonical(func)
        if canonical is None:
            return None
        for candidate in (f"{module.name}.{canonical}", canonical):
            resolved = self.resolve(candidate)
            if resolved is not None:
                target = self.functions.get(resolved) or self.classes.get(resolved)
                if target is not None:
                    return CallSite(call=call, targets=(target,))
        return None

    def _receiver_class(
        self, module: ModuleInfo, receiver: ast.expr, types: dict[str, str]
    ) -> ClassInfo | None:
        if isinstance(receiver, ast.Name):
            qualname = types.get(receiver.id)
            return self.classes.get(qualname) if qualname else None
        if isinstance(receiver, ast.Attribute) and isinstance(
            receiver.value, ast.Name
        ):
            owner_qualname = types.get(receiver.value.id)
            owner = self.classes.get(owner_qualname) if owner_qualname else None
            if owner is not None:
                attr_type = owner.attr_types.get(receiver.attr)
                return self.classes.get(attr_type) if attr_type else None
        if isinstance(receiver, ast.Call):
            canonical = module.canonical(receiver.func)
            resolved = self.resolve(canonical) if canonical else None
            if resolved in self.classes:
                return self.classes[resolved]
        return None

    def _fallback_by_name(self, call: ast.Call, name: str) -> CallSite | None:
        if name.startswith("__"):
            return None
        owners = self._methods_by_name.get(name, [])
        if not owners or len(owners) > NAME_FALLBACK_LIMIT:
            return None
        targets = tuple(owner.methods[name] for owner in owners)
        return CallSite(call=call, targets=targets, via_fallback=True)

    def all_functions(self) -> Iterator[FunctionInfo]:
        yield from self.functions.values()


def build_graph(
    files: Sequence[tuple[Path, str, ast.Module, str]], root: Path
) -> ProgramGraph:
    """Assemble a :class:`ProgramGraph` from parsed files.

    ``files`` rows are ``(path, relpath, tree, source)`` — the shape the
    runner already has after discovery/parsing.
    """
    modules: dict[str, ModuleInfo] = {}
    for path, relpath, tree, source in files:
        name = module_name_for(path, root)
        module = ModuleInfo(
            name=name, path=path, relpath=relpath, tree=tree, source=source
        )
        module.bindings = _module_bindings(
            tree, name, is_package=path.name == "__init__.py"
        )
        modules[name] = module
    return ProgramGraph(modules)
