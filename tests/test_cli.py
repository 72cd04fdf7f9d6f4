"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def _solution_lines(out: str) -> list[str]:
    """``compile`` output up to its profile, minus the timed line."""
    text = out.split("compile-time profile:")[0]
    return [
        line for line in text.splitlines()
        if not line.startswith("physical compile:")
    ]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile"])
        assert args.query == "q1"
        assert args.nodes == 4
        assert args.epsilon == 0.2

    def test_unknown_query_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["compile", "--query", "bogus"])


class TestBadInput:
    """Bad input fails at the CLI boundary: one line, no traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compile", "--query", "nway:abc"], "invalid query 'nway:abc'"),
            (["compile", "--query", "nway:0"], "invalid query 'nway:0'"),
            (["diagram", "--query", "nway:x"], "invalid query 'nway:x'"),
            (["compile", "--epsilon", "-1"], "epsilon must be >= 0"),
            (["compile", "--nodes", "0"], "n_nodes must be >= 1"),
            (["compile", "--capacity", "-5"], "capacity of node 0 must be > 0"),
            (["compile", "--level", "-1"], "must be a non-negative int"),
            (["compile", "--dims", "bogus"], "unknown parameter 'bogus'"),
            (["simulate", "--nodes", "0"], "n_nodes must be >= 1"),
            (["simulate", "--duration", "-1"], "--duration must be > 0"),
            (["simulate", "--rate-scale", "0"], "--rate-scale must be > 0"),
        ],
    )
    def test_exits_with_one_line(self, argv, message):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode != 0
        assert "Traceback" not in result.stdout + result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and message in lines[0], result.stderr


class TestCompile:
    def test_compile_q1(self, capsys):
        code = main(
            ["compile", "--query", "q1", "--nodes", "4", "--capacity", "380"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "RLD solution for query 'Q1'" in out
        assert "optimizer calls" in out
        assert "weight" in out

    def test_compile_infeasible_returns_nonzero(self, capsys):
        code = main(
            ["compile", "--query", "q1", "--nodes", "1", "--capacity", "10",
             "--level", "1", "--rate-level", "0"]
        )
        assert code == 1

    def test_compile_profile_prints_stage_breakdown(self, capsys):
        code = main(
            ["compile", "--query", "q1", "--nodes", "4", "--capacity", "380",
             "--level", "2", "--rate-level", "0", "--profile"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "compile-time profile:" in out
        assert "partitioning (ERP)" in out
        assert "robustness (weights + loads)" in out
        assert "physical mapping" in out
        assert "total" in out
        assert "robustness scan: exact, 3,125 points" in out

    def test_default_compile_profile_omits_unbuilt_tensor(self, capsys):
        # The default q1 space (84,035 points) is scanned exactly in
        # row blocks; no dense cost tensor is built.
        assert main(["compile", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "compile-time profile:" in out
        assert "cost-tensor build" not in out
        assert "robustness scan: exact, 84,035 points" in out

    def test_compile_without_profile_omits_breakdown(self, capsys):
        main(["compile", "--query", "q1", "--level", "2", "--rate-level", "0"])
        assert "compile-time profile:" not in capsys.readouterr().out

    def test_compile_jobs_matches_serial_and_reports_workers(self, capsys):
        runs = {}
        for jobs in ("1", "2"):
            code = main(
                ["compile", "--query", "q1", "--level", "2",
                 "--rate-level", "0", "--profile", "--jobs", jobs]
            )
            assert code == 0
            runs[jobs] = capsys.readouterr().out
        serial, parallel = (_solution_lines(runs[j]) for j in ("1", "2"))
        assert parallel == serial
        assert "worker busy (partitioning)" in runs["2"]
        assert "worker busy" not in runs["1"]

    def test_compile_q2_with_jobs(self, capsys):
        # A space whose dense grid matrix would take ~10 GiB: the
        # workers must be sent corner points, not the grid.
        args = ["compile", "--query", "q2", "--nodes", "4",
                "--capacity", "380", "--profile"]
        assert main(args + ["--jobs", "2"]) == 0
        parallel = _solution_lines(capsys.readouterr().out)
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert parallel == _solution_lines(serial)
        assert (
            "robustness scan: sampled 262,144 of 1,412,376,245 points "
            "(weights estimated)" in serial
        )

    def test_compile_rejects_zero_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", "--jobs", "0"])
        assert str(excinfo.value) == "jobs must be >= 1, got 0"

    def test_compile_nway(self, capsys):
        code = main(
            ["compile", "--query", "nway:4", "--nodes", "3",
             "--capacity", "600", "--level", "2"]
        )
        assert code == 0
        assert "J4" in capsys.readouterr().out


class TestDiagram:
    def test_renders_ascii_map(self, capsys):
        code = main(
            ["diagram", "--query", "q1", "--dims", "sel:1", "sel:3",
             "--level", "3", "--points-per-level", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "distinct plans over" in out
        assert "A = " in out

    def test_reduction_flag(self, capsys):
        code = main(
            ["diagram", "--query", "q1", "--dims", "sel:1", "sel:3",
             "--level", "3", "--points-per-level", "2",
             "--reduce-epsilon", "0.3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reduced at epsilon=0.3" in out

    @pytest.mark.parametrize(
        "extra, golden",
        [
            ([], "diagram_q1_level4.txt"),
            (["--reduce-epsilon", "0.1"], "diagram_q1_level4_reduced.txt"),
        ],
    )
    def test_output_is_pinned(self, capsys, extra, golden):
        code = main(
            ["diagram", "--query", "q1", "--dims", "sel:1", "sel:3",
             "--level", "4", *extra]
        )
        assert code == 0
        expected = (GOLDEN / golden).read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_requires_two_dims(self):
        with pytest.raises(SystemExit, match="two --dims"):
            main(["diagram", "--query", "q1", "--dims", "sel:1"])


class TestSimulate:
    def test_simulate_prints_table(self, capsys):
        code = main(
            ["simulate", "--query", "q1", "--nodes", "4", "--capacity", "380",
             "--duration", "30", "--strategies", "ROD", "RLD"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ROD" in out
        assert "RLD" in out
        assert "avg ms" in out

    def test_single_strategy(self, capsys):
        code = main(
            ["simulate", "--query", "q1", "--nodes", "4", "--capacity", "380",
             "--duration", "20", "--strategies", "RLD"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DYN" not in out.splitlines()[-1]
