"""CLI surface tests for ``repro lint``."""

from __future__ import annotations

import ast
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
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == [
        "no-unseeded-rng",
        "no-wallclock",
        "no-float-eq",
        "no-mutable-default",
        "no-module-mutable-state",
    ]


# ----------------------------------------------------------------------
# One run: each file is parsed once and its suppressions are audited
# once, name by name, against every rule that ran on it.
# ----------------------------------------------------------------------


def _import_with_suppression(root: Path, names: str) -> None:
    module = root / "src" / "repro" / "engine" / "seeded.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "import random  "
        f"# repro-lint: disable={names} -- the module seeds its own stream\n"
    )


def test_mixed_suppression_reports_only_its_dead_name(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    # no-unseeded-rng absorbs the import's finding; no-float-eq ran on
    # the file and absorbed nothing, so it alone is reported.
    _import_with_suppression(tmp_path, "no-unseeded-rng,no-float-eq")
    code = main(["lint", "--root", str(tmp_path), "--format", "json"])
    assert code == 1
    (diagnostic,) = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diagnostic["rule"] == "unused-suppression"
    assert diagnostic["line"] == 1
    assert "suppression for no-float-eq matched no finding" in diagnostic["message"]
    assert "no-unseeded-rng" not in diagnostic["message"]


def test_pass_suppression_alone_is_clean(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    """A suppression whose every name absorbed a finding is not reported."""
    _import_with_suppression(tmp_path, "no-unseeded-rng")
    assert main(["lint", "--root", str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_each_file_is_parsed_once(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    _import_with_suppression(tmp_path, "no-unseeded-rng")
    (tmp_path / "src" / "repro" / "engine" / "mod.py").write_text(
        "def ratio(a: float, b: float) -> bool:\n    return a / b == 0.5\n"
    )
    parsed: list[str] = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(str(filename))
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    # Both rules ran: one finding absorbed, one reported.
    assert main(["lint", "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[no-float-eq]" in out
    assert "[no-unseeded-rng]" not in out
    assert "2 file(s) checked" in out
    assert sorted(Path(name).name for name in parsed) == ["mod.py", "seeded.py"]
