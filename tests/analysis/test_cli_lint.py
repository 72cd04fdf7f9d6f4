"""CLI surface tests for ``repro lint``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_lint_tree_exits_zero(capsys: pytest.CaptureFixture) -> None:
    assert main(["lint", "--root", str(REPO_ROOT)]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_finding_exits_one_and_renders_json(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    bad = tmp_path / "src" / "repro" / "engine" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\n")
    code = main(["lint", "--root", str(tmp_path), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    (diagnostic,) = payload["diagnostics"]
    assert diagnostic["rule"] == "no-unseeded-rng"
    assert diagnostic["path"] == "src/repro/engine/mod.py"


def test_lint_disable_silences_rule(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    bad = tmp_path / "src" / "repro" / "engine" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\n")
    code = main(
        ["lint", "--root", str(tmp_path), "--disable", "no-unseeded-rng"]
    )
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_lint_unknown_disable_is_an_error() -> None:
    with pytest.raises(SystemExit, match="unknown rule"):
        main(["lint", "--root", str(REPO_ROOT), "--disable", "not-a-rule"])


def test_lint_missing_path_is_an_error(tmp_path: Path) -> None:
    with pytest.raises(SystemExit, match="no such path"):
        main(["lint", "nope/", "--root", str(tmp_path)])


def test_lint_list_rules(capsys: pytest.CaptureFixture) -> None:
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in (
        "no-unseeded-rng",
        "no-wallclock",
        "no-float-eq",
        "no-mutable-default",
        "no-module-mutable-state",
    ):
        assert name in out
