"""One object-graph walk for the runtime-invariant tests.

:func:`references` yields one ``(path, obj)`` pair per reference
reachable from a root: an attribute of an object defined in
:mod:`repro` (its ``vars()`` and ``__slots__``), a key or value of a
dict, or an item of a list, tuple, set or frozenset.  Any other object
is a leaf.  An object reached by two references is yielded twice and
expanded once, so a caller can count the edges into an object as well
as list what is reachable.  No attribute is named: a new field is
walked without editing this module.
"""

from __future__ import annotations

from typing import Any, Iterator


def _children(path: str, obj: Any) -> Iterator[tuple[str, Any]]:
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield f"{path} key {key!r}", key
            yield f"{path}[{key!r}]", value
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for i, item in enumerate(obj):
            yield f"{path}[{i}]", item
    elif type(obj).__module__.startswith("repro."):
        attrs = dict(getattr(obj, "__dict__", {}))
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if hasattr(obj, slot):
                    attrs[slot] = getattr(obj, slot)
        for name, value in attrs.items():
            yield f"{path}.{name}", value


def references(root: Any, name: str) -> Iterator[tuple[str, Any]]:
    """Every reference reachable from ``root`` (itself named ``name``),
    as ``(path, obj)``; ``root`` comes first."""
    yield name, root
    expanded: set[int] = set()
    stack = [(name, root)]
    while stack:
        path, obj = stack.pop()
        if id(obj) in expanded:
            continue
        expanded.add(id(obj))
        for child in _children(path, obj):
            yield child
            stack.append(child)
