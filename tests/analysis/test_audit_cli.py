"""CLI surface tests for ``repro audit`` and the shared ``--diff`` flag."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_audit_tree_exits_zero(capsys: pytest.CaptureFixture) -> None:
    assert main(["audit", "--root", str(REPO_ROOT)]) == 0
    assert "clean" in capsys.readouterr().out


def test_audit_list_passes(capsys: pytest.CaptureFixture) -> None:
    assert main(["audit", "--list-passes"]) == 0
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
    code = main(["audit", "--root", str(tmp_path), "--format", "json"])
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
    code = main(["audit", "--root", str(tmp_path), "--disable", "fault-hook-raises"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_audit_unknown_disable_is_an_error() -> None:
    with pytest.raises(SystemExit, match="unknown rule"):
        main(["audit", "--root", str(REPO_ROOT), "--disable", "not-a-pass"])


# ----------------------------------------------------------------------
# --diff <rev>
# ----------------------------------------------------------------------

BAD_HOOK = (
    "class Strategy:\n"
    "    def on_fault(self, simulator, event):\n"
    "        raise ValueError('boom')\n"
)


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "HOME": str(repo),
        },
    )


@pytest.fixture
def diff_repo(tmp_path: Path) -> Path:
    """A git repo with a committed finding and an uncommitted clean file."""
    pkg = tmp_path / "src" / "repro" / "engine"
    pkg.mkdir(parents=True)
    (pkg / "hook.py").write_text(BAD_HOOK)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def test_diff_hides_findings_in_unchanged_files(
    diff_repo: Path, capsys: pytest.CaptureFixture
) -> None:
    # Nothing changed since HEAD: the committed finding is filtered out
    # (exit 0) but the file count still reflects the full analysis.
    code = main(["audit", "--root", str(diff_repo), "--diff", "HEAD", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"] == []
    assert payload["files_checked"] == 1


def test_diff_keeps_findings_in_changed_files(
    diff_repo: Path, capsys: pytest.CaptureFixture
) -> None:
    # Touch the offending file: its finding is reported again.
    hook = diff_repo / "src" / "repro" / "engine" / "hook.py"
    hook.write_text(BAD_HOOK + "\n# touched\n")
    code = main(["audit", "--root", str(diff_repo), "--diff", "HEAD"])
    assert code == 1
    assert "fault-hook-raises" in capsys.readouterr().out


def test_diff_sees_untracked_files(
    diff_repo: Path, capsys: pytest.CaptureFixture
) -> None:
    fresh = diff_repo / "src" / "repro" / "engine" / "fresh.py"
    fresh.write_text(BAD_HOOK)
    code = main(["audit", "--root", str(diff_repo), "--diff", "HEAD"])
    assert code == 1
    out = capsys.readouterr().out
    assert "fresh.py" in out
    assert "hook.py" not in out  # unchanged file stays filtered


def test_diff_bad_revision_is_an_error(diff_repo: Path) -> None:
    with pytest.raises(SystemExit, match="git"):
        main(["audit", "--root", str(diff_repo), "--diff", "no-such-rev"])


def test_diff_works_on_lint_too(
    diff_repo: Path, capsys: pytest.CaptureFixture
) -> None:
    bad = diff_repo / "src" / "repro" / "engine" / "mod.py"
    bad.write_text("import random\n")
    code = main(["lint", "--root", str(diff_repo), "--diff", "HEAD"])
    assert code == 1
    assert "no-unseeded-rng" in capsys.readouterr().out
