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
    out = capsys.readouterr().out
    for name in (
        "no-unseeded-rng",
        "no-wallclock",
        "no-float-eq",
        "no-mutable-default",
        "no-module-mutable-state",
        "shared-node-state",
        "fault-hook-raises",
        "shared-rng",
    ):
        assert name in out


# ----------------------------------------------------------------------
# One run: per-file rules and whole-program passes share one parse and
# one suppression audit.
# ----------------------------------------------------------------------


def _hook_with_suppression(root: Path, names: str) -> None:
    hook = root / "src" / "repro" / "engine" / "hook.py"
    hook.parent.mkdir(parents=True)
    hook.write_text(
        "class Strategy:\n"
        "    def on_fault(self, simulator, event):  "
        f"# repro-lint: disable={names} -- the hook rethrows by design\n"
        "        raise ValueError('boom')\n"
    )


def test_mixed_suppression_reports_only_its_dead_name(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    # fault-hook-raises absorbs the pass's finding; no-float-eq ran on
    # the file and absorbed nothing, so it alone is reported.
    _hook_with_suppression(tmp_path, "fault-hook-raises,no-float-eq")
    code = main(["lint", "--root", str(tmp_path), "--format", "json"])
    assert code == 1
    (diagnostic,) = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diagnostic["rule"] == "unused-suppression"
    assert diagnostic["line"] == 2
    assert "suppression for no-float-eq matched no finding" in diagnostic["message"]
    assert "fault-hook-raises" not in diagnostic["message"]


def test_pass_suppression_alone_is_clean(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    _hook_with_suppression(tmp_path, "fault-hook-raises")
    assert main(["lint", "--root", str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_each_file_is_parsed_once(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    _hook_with_suppression(tmp_path, "fault-hook-raises")
    (tmp_path / "src" / "repro" / "engine" / "mod.py").write_text(
        "def ratio(a: float, b: float) -> bool:\n    return a / b == 0.5\n"
    )
    parsed: list[str] = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(str(filename))
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    # Rules (no-float-eq) and passes (fault-hook-raises) both active.
    assert main(["lint", "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[no-float-eq]" in out
    assert "2 file(s) checked" in out
    assert sorted(Path(name).name for name in parsed) == ["hook.py", "mod.py"]
