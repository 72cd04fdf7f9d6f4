"""Whole-tree audit gates: the real program is clean, and stays honest.

The mutation-style test guards against the audit going blind: it takes
the real ``physical.py``, *disables* the freeze of
``PlanLoadTable.load_matrix`` (``write=False`` → ``write=True``), and
demands the producer check notice.  If a refactor
ever made the tensor-escape pass vacuous, this test — not production —
is where it shows.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import AuditRunner, audit_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_real_tree_audits_clean() -> None:
    report = audit_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert report.exit_code == 0, [
        f"{d.path}:{d.line}: [{d.rule}] {d.message}" for d in report.diagnostics
    ]
    assert report.files_checked > 50


def test_unfrozen_cost_tensor_is_caught(tmp_path: Path) -> None:
    original = (
        REPO_ROOT / "src" / "repro" / "core" / "physical.py"
    ).read_text(encoding="utf-8")
    assert "write=False" in original  # the real file does freeze
    mutated = original.replace("write=False", "write=True")
    target = tmp_path / "physical.py"
    target.write_text(mutated, encoding="utf-8")
    runner = AuditRunner(respect_scopes=False, root=tmp_path)
    report = runner.run([target])
    assert report.exit_code == 1
    assert {d.rule for d in report.diagnostics} == {"tensor-escape"}
    assert any("never frozen" in d.message for d in report.diagnostics)
