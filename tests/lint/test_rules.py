"""Per-rule fixture tests: each rule is demonstrated by a fixture file
with known violations, and each test fails if its rule is removed from
the registry (the fixture's findings vanish)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import all_rules
from repro.lint.runner import lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> (rule code, fake path that puts it in the rule's scope)
CASES = {
    "rl001_charge.py": ("RL001", "src/repro/core/fixture_mod.py"),
    "rl002_checkpoint.py": ("RL002", "src/repro/core/fixture_mod.py"),
    "rl003_determinism.py": ("RL003", "src/repro/core/fixture_mod.py"),
    "rl004_taxonomy.py": ("RL004", "src/repro/storage/fixture_mod.py"),
    "rl005_floats.py": ("RL005", "src/repro/scanstats/fixture_mod.py"),
}


def _expected_lines(source: str) -> set[int]:
    """Lines carrying a ``# line N: finding`` marker in a fixture."""
    return {
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if ": finding" in line
    }


@pytest.mark.parametrize("fixture,case", sorted(CASES.items()))
def test_rule_flags_exactly_the_marked_lines(fixture: str, case) -> None:
    code, fake_path = case
    source = (FIXTURES / fixture).read_text(encoding="utf-8")
    findings = lint_source(fake_path, source)
    flagged = {f.line for f in findings if f.code == code}
    assert flagged == _expected_lines(source)
    # No *other* rule may fire on the fixture either — fixtures are
    # single-rule by construction.
    assert {f.code for f in findings} <= {code}


@pytest.mark.parametrize("fixture,case", sorted(CASES.items()))
def test_fixture_is_clean_without_its_rule(fixture: str, case) -> None:
    """Removing the rule removes every finding — i.e. the assertions above
    genuinely depend on the rule existing."""
    code, fake_path = case
    source = (FIXTURES / fixture).read_text(encoding="utf-8")
    rules = {c: r for c, r in all_rules().items() if c != code}
    assert lint_source(fake_path, source, rules=rules) == []


def test_registry_has_at_least_five_rules() -> None:
    rules = all_rules()
    assert len(rules) >= 5
    assert set(CASES[f][0] for f in CASES) <= set(rules)
    for code, rule in rules.items():
        assert rule.code == code
        assert rule.name and rule.rationale


def test_rl001_scope_excludes_detectors_package() -> None:
    source = (FIXTURES / "rl001_charge.py").read_text(encoding="utf-8")
    inside = lint_source("src/repro/detectors/fixture_mod.py", source)
    assert [f for f in inside if f.code == "RL001"] == []


def test_rl003_scope_is_replay_critical_packages_only() -> None:
    source = (FIXTURES / "rl003_determinism.py").read_text(encoding="utf-8")
    # eval/ may use wall clocks and ad-hoc randomness freely.
    outside = lint_source("src/repro/eval/fixture_mod.py", source)
    assert [f for f in outside if f.code == "RL003"] == []
    inside = lint_source("src/repro/scanstats/fixture_mod.py", source)
    assert [f for f in inside if f.code == "RL003"]


def test_rl002_reports_each_missing_attribute_once() -> None:
    source = (FIXTURES / "rl002_checkpoint.py").read_text(encoding="utf-8")
    findings = lint_source("src/repro/core/fixture_mod.py", source)
    messages = [f.message for f in findings]
    assert len(messages) == 1
    assert "_forgotten" in messages[0]
    assert "_CHECKPOINT_EXCLUDE" in messages[0]


def test_rl004_whitelists_mapping_and_protocol_raises() -> None:
    source = (FIXTURES / "rl004_taxonomy.py").read_text(encoding="utf-8")
    findings = lint_source("src/repro/storage/fixture_mod.py", source)
    texts = "\n".join(f.message for f in findings)
    assert "KeyError" not in texts  # mapping semantics stay legal
    assert "AttributeError" not in texts  # __getattr__ protocol stays legal
