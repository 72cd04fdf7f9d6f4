"""Documentation consistency: the docs reference real artifacts."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.checks import all_rules

ROOT = Path(__file__).resolve().parent.parent


class TestDocsExist:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/architecture.md", "docs/algorithms.md",
         "docs/static-analysis.md"],
    )
    def test_document_present_and_substantial(self, name):
        path = ROOT / name
        assert path.exists(), f"{name} missing"
        assert len(path.read_text()) > 1000, f"{name} looks like a stub"


class TestReferencesResolve:
    def _referenced_paths(self, text: str) -> set[str]:
        return set(re.findall(r"`(benchmarks/[\w./]+\.py)`", text)) | set(
            re.findall(r"`(repro/[\w./]+\.py)`", text)
        ) | set(re.findall(r"`(examples/[\w./]+\.py)`", text))

    @pytest.mark.parametrize("name", ["DESIGN.md", "EXPERIMENTS.md"])
    def test_every_referenced_file_exists(self, name):
        text = (ROOT / name).read_text()
        for ref in self._referenced_paths(text):
            candidates = [ROOT / ref, ROOT / "src" / ref]
            assert any(c.exists() for c in candidates), f"{name} references missing {ref}"

    def test_every_evaluation_figure_has_a_bench(self):
        bench_names = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
        for required in (
            "test_table2_distributions.py",
            "test_fig10_optimizer_calls.py",
            "test_fig11_space_coverage.py",
            "test_fig12_dimensions.py",
            "test_fig13_compile_time.py",
            "test_fig14_phys_coverage.py",
            "test_fig15a_processing_time.py",
            "test_fig15b_throughput.py",
            "test_fig16a_nodes.py",
            "test_fig16b_period.py",
            "test_overhead.py",
        ):
            assert required in bench_names

    def test_experiments_covers_every_bench_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for figure in ("Table 2", "Figure 10", "Figure 11", "Figure 12",
                       "Figure 13", "Figure 14", "Figure 15a", "Figure 15b",
                       "Figure 16a", "Figure 16b", "Runtime overhead"):
            assert figure in text, f"EXPERIMENTS.md lacks a section for {figure}"

    def test_examples_listed_in_readme_exist(self):
        text = (ROOT / "README.md").read_text()
        for ref in re.findall(r"python (examples/[\w.]+\.py)", text):
            assert (ROOT / ref).exists(), f"README references missing {ref}"


class TestStaticAnalysisCatalog:
    """``docs/static-analysis.md`` lists exactly the rules the code
    registers: a stale row or an undocumented rule fails here."""

    def _catalog(self, heading: str) -> list[str]:
        text = (ROOT / "docs" / "static-analysis.md").read_text()
        section = text.split(f"{heading}\n", 1)[1].split("\n#", 1)[0]
        return re.findall(r"^\| `([\w-]+)` \|", section, flags=re.MULTILINE)

    def test_rule_catalog_matches_all_rules(self):
        documented = self._catalog("## Rule catalog")
        assert documented == [r.name for r in all_rules()]
