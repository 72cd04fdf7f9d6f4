"""Engine-level tests: scope handling, rule resolution, reporting,
and the tree-is-clean gate itself."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import LintRunner, render_json, render_text
from repro.analysis.rules import default_rules, resolve_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_default_rules_catalog() -> None:
    rules = default_rules()
    assert [rule.name for rule in rules] == [
        "no-unseeded-rng",
        "no-wallclock",
        "no-float-eq",
        "no-mutable-default",
        "no-module-mutable-state",
    ]
    for rule in rules:
        assert rule.description


def test_resolve_rules_drops_and_validates() -> None:
    rules = resolve_rules(default_rules(), ["no-float-eq"])
    assert "no-float-eq" not in {rule.name for rule in rules}
    with pytest.raises(ValueError, match="unknown rule"):
        resolve_rules(default_rules(), ["not-a-rule"])


def test_scopes_respected_for_out_of_scope_files(tmp_path: Path) -> None:
    """The same violation is flagged inside a rule's scope and ignored
    outside it when scopes are respected."""
    inside = tmp_path / "src" / "repro" / "engine" / "mod.py"
    outside = tmp_path / "scripts" / "mod.py"
    for target in (inside, outside):
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("import random\n")
    report = LintRunner(root=tmp_path).run([tmp_path])
    assert {d.rule for d in report.diagnostics} == {"no-unseeded-rng"}
    assert {d.path for d in report.diagnostics} == {"src/repro/engine/mod.py"}


def test_allowlisted_file_is_exempt(tmp_path: Path) -> None:
    rng_home = tmp_path / "src" / "repro" / "util" / "rng.py"
    rng_home.parent.mkdir(parents=True)
    rng_home.write_text("import random\n")
    report = LintRunner(root=tmp_path).run([tmp_path])
    assert report.diagnostics == []


def test_file_outside_root_is_checked(tmp_path: Path) -> None:
    """A requested file outside ``root`` is still parsed and checked,
    and reported under its absolute path."""
    outside = tmp_path / "elsewhere" / "mod.py"
    outside.parent.mkdir()
    outside.write_text("import random\n")
    (tmp_path / "root").mkdir()
    runner = LintRunner(respect_scopes=False, root=tmp_path / "root")
    report = runner.run([outside])
    assert [(d.path, d.rule) for d in report.diagnostics] == [
        (outside.resolve().as_posix(), "no-unseeded-rng")
    ]


def test_hidden_and_pycache_dirs_skipped(tmp_path: Path) -> None:
    for sub in (".hidden", "__pycache__"):
        bad = tmp_path / sub / "mod.py"
        bad.parent.mkdir()
        bad.write_text("import random\n")
    runner = LintRunner(respect_scopes=False, root=tmp_path)
    assert runner.run([tmp_path]).files_checked == 0


def test_report_renderers_and_exit_code(tmp_path: Path) -> None:
    target = tmp_path / "mod.py"
    target.write_text("import random\n")
    report = LintRunner(respect_scopes=False, root=tmp_path).run([tmp_path])
    assert report.exit_code == 1
    text = render_text(report)
    assert "mod.py:1:1" in text
    assert "no-unseeded-rng" in text
    payload = json.loads(render_json(report))
    assert payload["files_checked"] == 1
    assert payload["counts"] == {"no-unseeded-rng": 1}
    (diagnostic,) = payload["diagnostics"]
    assert diagnostic["rule"] == "no-unseeded-rng"
    assert diagnostic["line"] == 1


def test_clean_report_exit_code_zero(tmp_path: Path) -> None:
    (tmp_path / "mod.py").write_text("x = 1\n")
    report = LintRunner(respect_scopes=False, root=tmp_path).run([tmp_path])
    assert report.exit_code == 0
    assert "clean" in render_text(report)


def test_repo_tree_is_lint_clean() -> None:
    """The acceptance gate: the shipped tree has zero findings under
    every rule.

    Properties of the built program are checked at runtime, not here:
    see ``tests/core/test_logical.py::test_every_array_a_compiled_solution_holds_is_frozen``
    and ``tests/engine/test_isolation.py``.
    """
    report = LintRunner(root=REPO_ROOT).run([REPO_ROOT / "src" / "repro"])
    assert report.files_checked > 50
    offenders = [d.location() + f" {d.rule}" for d in report.diagnostics]
    assert offenders == []
