"""Audit fixture corpus: each bad package triggers exactly its pass.

Every package under ``fixtures/audit/`` is a minimal multi-module
program.  Bad packages each contain one cross-module defect class; the
assertions pin the exact rule set, finding count, *and* the files the
findings land in — a fixture that tripped a second pass, or reported in
the wrong module, fails here.  ``good_tree`` exercises the sanctioned
idiom for every pass at once and must stay silent.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import LintRunner

FIXTURES = Path(__file__).parent / "fixtures" / "audit"

#: package -> (exact rule set, exact count, exact set of finding files)
BAD_PACKAGES = {
    "bad_aliasing": (
        {"shared-node-state"},
        2,
        {"bad_aliasing/wiring.py"},
    ),
    "bad_faultpath": (
        {"fault-hook-raises"},
        1,
        {"bad_faultpath/strategy.py"},
    ),
    "bad_rng": (
        {"shared-rng"},
        2,
        {"bad_rng/sources.py", "bad_rng/wiring.py"},
    ),
}

GOOD_PACKAGES = ["good_tree"]


def _audit(package: str):
    runner = LintRunner(respect_scopes=False, root=FIXTURES)
    return runner.run([FIXTURES / package])


@pytest.mark.parametrize("package", sorted(BAD_PACKAGES))
def test_bad_package_triggers_exactly_its_pass(package: str) -> None:
    expected_rules, expected_count, expected_files = BAD_PACKAGES[package]
    report = _audit(package)
    assert {d.rule for d in report.diagnostics} == expected_rules
    assert len(report.diagnostics) == expected_count
    assert {d.path for d in report.diagnostics} == expected_files
    assert report.exit_code == 1


@pytest.mark.parametrize("package", GOOD_PACKAGES)
def test_good_package_is_clean(package: str) -> None:
    report = _audit(package)
    assert report.diagnostics == []
    assert report.exit_code == 0


def test_corpus_is_exhaustive() -> None:
    on_disk = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
    assert on_disk == set(BAD_PACKAGES) | set(GOOD_PACKAGES)


def test_finding_messages_carry_provenance() -> None:
    report = _audit("bad_faultpath")
    (finding,) = report.diagnostics
    # The chain names the function the exception actually comes from.
    assert "EvacuationError" in finding.message
    assert "relocate" in finding.message


def test_suppression_absorbs_audit_finding(tmp_path: Path) -> None:
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text('"""pkg."""\n')
    (package / "nodes.py").write_text(
        '"""Nodes."""\n\n\n'
        "class CacheNode:\n"
        "    def __init__(self, table):\n"
        "        self.table = table\n"
    )
    (package / "wiring.py").write_text(
        '"""Wiring."""\n\n'
        "from pkg.nodes import CacheNode\n\n\n"
        "def build():\n"
        "    shared = {}\n"
        "    a = CacheNode(shared)\n"
        "    b = CacheNode(shared)  "
        "# repro-lint: disable=shared-node-state -- test shared ledger\n"
        "    return a, b\n"
    )
    runner = LintRunner(respect_scopes=False, root=tmp_path)
    report = runner.run([package])
    assert report.diagnostics == []
