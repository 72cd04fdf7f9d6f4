"""Whole-tree gate for the whole-program passes: the real program is
clean under the three passes alone, so a pass finding cannot hide
behind a per-file rule's suppression on the same line.

Frozen shared arrays are checked at runtime, not here: see
``tests/core/test_logical.py::test_every_array_a_compiled_solution_holds_is_frozen``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import LintRunner, Rule
from repro.analysis.checks import all_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_real_tree_audits_clean() -> None:
    passes = [
        check
        for check in all_rules()
        if type(check).check_program is not Rule.check_program
    ]
    assert [check.name for check in passes] == [
        "shared-node-state",
        "fault-hook-raises",
        "shared-rng",
    ]
    report = LintRunner(checks=passes, root=REPO_ROOT).run(
        [REPO_ROOT / "src" / "repro"]
    )
    assert report.exit_code == 0, [
        f"{d.path}:{d.line}: [{d.rule}] {d.message}" for d in report.diagnostics
    ]
    assert report.files_checked > 50
