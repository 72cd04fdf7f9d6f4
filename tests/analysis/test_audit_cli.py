"""CLI surface tests for the whole-program passes, run by ``repro lint``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_audit_tree_exits_zero(capsys: pytest.CaptureFixture) -> None:
    assert main(["lint", "--root", str(REPO_ROOT)]) == 0
    assert "clean" in capsys.readouterr().out


def test_audit_list_passes(capsys: pytest.CaptureFixture) -> None:
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in (
        "shared-node-state",
        "fault-hook-raises",
        "shared-rng",
    ):
        assert name in out


def test_audit_finding_exits_one_and_renders_json(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    bad = tmp_path / "src" / "repro" / "engine" / "hook.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "class Strategy:\n"
        "    def on_fault(self, simulator, event):\n"
        "        raise ValueError('boom')\n"
    )
    code = main(["lint", "--root", str(tmp_path), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    (diagnostic,) = payload["diagnostics"]
    assert diagnostic["rule"] == "fault-hook-raises"
    assert diagnostic["path"] == "src/repro/engine/hook.py"


def test_audit_disable_silences_pass(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    bad = tmp_path / "src" / "repro" / "engine" / "hook.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "class Strategy:\n"
        "    def on_fault(self, simulator, event):\n"
        "        raise ValueError('boom')\n"
    )
    code = main(["lint", "--root", str(tmp_path), "--disable", "fault-hook-raises"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_audit_unknown_disable_is_an_error() -> None:
    with pytest.raises(SystemExit, match="unknown rule"):
        main(["lint", "--root", str(REPO_ROOT), "--disable", "not-a-pass"])
