"""Fixture-corpus tests: each known-bad file triggers exactly its
intended rule, each known-good file lints clean.

Scopes are disabled (``respect_scopes=False``) so rules run on the
synthetic fixture paths; every default rule still sees every fixture,
which is what makes the "exactly its intended rule" assertion strong —
a fixture that accidentally tripped a *second* rule would fail here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import LintRunner

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture name -> (exact rule set, exact finding count)
BAD_FIXTURES = {
    "bad_rng.py": ({"no-unseeded-rng"}, 3),
    "bad_wallclock.py": ({"no-wallclock"}, 3),
    "bad_floateq.py": ({"no-float-eq"}, 2),
    "bad_mutable_default.py": ({"no-mutable-default"}, 2),
    "bad_module_state.py": ({"no-module-mutable-state"}, 2),
    "bad_syntax.py": ({"syntax-error"}, 1),
    # An unjustified suppression suppresses nothing: the original
    # finding surfaces alongside the bad-suppression audit finding.
    "suppressed_missing_why.py": ({"no-wallclock", "bad-suppression"}, 2),
    "suppressed_unknown_rule.py": ({"bad-suppression"}, 1),
    "suppressed_unused.py": ({"unused-suppression"}, 1),
}

GOOD_FIXTURES = [
    "good_rng.py",
    "good_wallclock.py",
    "good_floateq.py",
    "good_mutable_default.py",
    "good_module_state.py",
    "suppressed_ok.py",
]


def _check(name: str):
    return LintRunner(respect_scopes=False, root=FIXTURES).run([FIXTURES / name])


@pytest.mark.parametrize("name", sorted(BAD_FIXTURES))
def test_bad_fixture_triggers_exactly_its_rule(name: str) -> None:
    expected_rules, expected_count = BAD_FIXTURES[name]
    context = _check(name)
    assert {d.rule for d in context.diagnostics} == expected_rules
    assert len(context.diagnostics) == expected_count


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_good_fixture_is_clean(name: str) -> None:
    assert _check(name).diagnostics == []


def test_corpus_is_exhaustive() -> None:
    """Every fixture on disk is claimed by exactly one expectation table."""
    on_disk = {p.name for p in FIXTURES.glob("*.py")}
    claimed = set(BAD_FIXTURES) | set(GOOD_FIXTURES)
    assert on_disk == claimed


def test_diagnostics_carry_usable_locations() -> None:
    context = _check("bad_rng.py")
    for diagnostic in context.diagnostics:
        assert diagnostic.line > 0
        assert diagnostic.col > 0
        assert diagnostic.path.endswith("bad_rng.py")
        assert diagnostic.message
