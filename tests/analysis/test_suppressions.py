"""Unit tests for the suppression grammar and its engine semantics."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import LintRunner
from repro.analysis.engine import parse_suppressions
from repro.analysis.rules import BAD_SUPPRESSION, UNUSED_SUPPRESSION


def test_trailing_comment_applies_to_its_own_line() -> None:
    source = "x = compute()  # repro-lint: disable=no-wallclock -- why\n"
    by_line = parse_suppressions(source)
    assert list(by_line) == [1]
    (suppression,) = by_line[1]
    assert suppression.rules == frozenset({"no-wallclock"})
    assert suppression.justification == "why"
    assert suppression.valid


def test_standalone_comment_applies_to_next_code_line() -> None:
    source = textwrap.dedent(
        """\
        # repro-lint: disable=no-float-eq -- pinned dims compare bitwise

        # an unrelated comment in between
        if lo == hi:
            pass
        """
    )
    by_line = parse_suppressions(source)
    assert list(by_line) == [4]
    (suppression,) = by_line[4]
    assert suppression.comment_line == 1


def test_multiple_rules_in_one_comment() -> None:
    source = "y = f()  # repro-lint: disable=no-wallclock, no-float-eq -- both\n"
    (suppression,) = parse_suppressions(source)[1]
    assert suppression.rules == frozenset({"no-wallclock", "no-float-eq"})


def test_missing_justification_is_invalid() -> None:
    (suppression,) = parse_suppressions(
        "z = g()  # repro-lint: disable=no-wallclock\n"
    )[1]
    assert not suppression.valid


def test_hash_inside_string_is_not_a_suppression() -> None:
    source = 's = "# repro-lint: disable=no-wallclock -- fake"\n'
    assert parse_suppressions(source) == {}


def test_unparsable_source_yields_no_suppressions() -> None:
    assert parse_suppressions("def broken(:\n") == {}


def _lint_snippet(tmp_path: Path, source: str):
    target = tmp_path / "snippet.py"
    target.write_text(source)
    return LintRunner(respect_scopes=False, root=tmp_path).run([target])


def test_valid_suppression_absorbs_and_counts_as_used(tmp_path: Path) -> None:
    context = _lint_snippet(
        tmp_path,
        "import time\n"
        "\n"
        "def f() -> float:\n"
        "    return time.time()  # repro-lint: disable=no-wallclock -- test\n",
    )
    assert context.diagnostics == []


def test_suppression_only_absorbs_named_rules(tmp_path: Path) -> None:
    """A no-float-eq suppression does not silence a wall-clock finding
    on the same line — and then reports itself as unused."""
    context = _lint_snippet(
        tmp_path,
        "import time\n"
        "\n"
        "def f() -> float:\n"
        "    return time.time()  # repro-lint: disable=no-float-eq -- wrong rule\n",
    )
    assert {d.rule for d in context.diagnostics} == {
        "no-wallclock",
        UNUSED_SUPPRESSION,
    }


def test_unused_suppression_not_reported_for_inactive_rules(tmp_path: Path) -> None:
    """Disabling a rule must not turn its (now-unmatched) suppressions
    into unused-suppression noise, nor into unknown-rule errors."""
    from repro.analysis.rules import default_rules, resolve_rules

    target = tmp_path / "snippet.py"
    target.write_text(
        "import time\n"
        "\n"
        "def f() -> float:\n"
        "    return time.time()  # repro-lint: disable=no-wallclock -- test\n"
    )
    rules = resolve_rules(default_rules(), ["no-wallclock"])
    report = LintRunner(rules, respect_scopes=False, root=tmp_path).run([target])
    assert report.diagnostics == []


def test_bad_suppression_reported_at_comment_line(tmp_path: Path) -> None:
    context = _lint_snippet(
        tmp_path,
        "def f(x: int) -> int:\n"
        "    return x  # repro-lint: disable=no-float-eq\n",
    )
    (diagnostic,) = context.diagnostics
    assert diagnostic.rule == BAD_SUPPRESSION
    assert diagnostic.line == 2
