"""Whole-tree audit gate: the real program is clean.

Frozen shared arrays are checked at runtime, not here: see
``tests/core/test_logical.py::test_every_array_a_compiled_solution_holds_is_frozen``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import audit_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_real_tree_audits_clean() -> None:
    report = audit_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert report.exit_code == 0, [
        f"{d.path}:{d.line}: [{d.rule}] {d.message}" for d in report.diagnostics
    ]
    assert report.files_checked > 50
