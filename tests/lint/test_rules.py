"""Per-rule input tests: each rule is shown a fixture with known violations,
and each test fails if the rule is taken out of ``RULES`` (the input's
findings vanish)."""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.lint.rules import RULES, check

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"

#: A stateful service-shaped class whose checkpoint misses an attribute,
#: and its twin that lists the attribute in ``_CHECKPOINT_EXCLUDE``.
SERVICE_UNCOVERED = """\
class BrokenRegistry:
    def __init__(self):
        self._entries = {}
        self._watchers = []  # line 4: finding

    def state_dict(self):
        return {'entries': dict(self._entries)}

    def load_state_dict(self, state):
        self._entries = dict(state['entries'])
"""
SERVICE_EXCLUDED = """\
class CoveredRegistry:
    _CHECKPOINT_EXCLUDE = frozenset({'_watchers'})

    def __init__(self):
        self._entries = {}
        self._watchers = []

    def state_dict(self):
        return {'entries': dict(self._entries)}

    def load_state_dict(self, state):
        self._entries = dict(state['entries'])
"""


def _fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


CORE = ("repro", "core", "fixture_mod")

#: input -> (source, rule code, module path that puts it in the rule's
#: scope, lines the allowlist would excuse).  The excused lines are the
#: fixtures' intentional sentinels: findings the rule must still report.
CASES = {
    "rl001_charge.py": (_fixture("rl001_charge.py"), "RL001", CORE, {30}),
    "rl002_checkpoint.py": (_fixture("rl002_checkpoint.py"), "RL002", CORE, set()),
    "rl003_determinism.py": (_fixture("rl003_determinism.py"), "RL003", CORE, set()),
    "rl004_taxonomy.py": (
        _fixture("rl004_taxonomy.py"), "RL004", ("repro", "storage", "fixture_mod"), set()
    ),
    "rl005_floats.py": (
        _fixture("rl005_floats.py"), "RL005", ("repro", "scanstats", "fixture_mod"), {33}
    ),
    "service_uncovered": (
        SERVICE_UNCOVERED, "RL002", ("repro", "service", "broken_registry"), set()
    ),
    "service_excluded": (SERVICE_EXCLUDED, "RL002", ("repro", "service", "covered"), set()),
}


def _marked_lines(source: str) -> set[int]:
    """Lines carrying a ``# line N: finding`` marker."""
    return {
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if ": finding" in line
    }


@pytest.mark.parametrize("name", CASES)
def test_rule_flags_exactly_the_marked_lines(name: str) -> None:
    source, code, module, excused = CASES[name]
    findings = check(source, module)
    flagged = {line for line, c, _ in findings if c == code}
    assert flagged == _marked_lines(source) | excused
    # No *other* rule may fire on the input either: inputs are single-rule
    # by construction.
    assert {c for _, c, _ in findings} <= {code}


@pytest.mark.parametrize("name", CASES)
def test_input_is_clean_without_its_rule(name: str) -> None:
    """Removing the rule removes every finding, i.e. the assertions above
    depend on the rule existing."""
    source, code, module, _ = CASES[name]
    assert check(source, module, [c for c in RULES if c != code]) == []


#: code -> a module path outside the rule's scope.
OUTSIDE = {
    "RL001": ("repro", "detectors", "fixture_mod"),
    "RL002": ("tests", "fixture_mod"),
    "RL003": ("repro", "eval", "fixture_mod"),
    "RL004": ("benchmarks", "fixture_mod"),
    "RL005": ("repro", "service", "fixture_mod"),
}


@pytest.mark.parametrize("name", CASES)
def test_input_is_clean_outside_its_rules_scope(name: str) -> None:
    source, code, _, _ = CASES[name]
    assert check(source, OUTSIDE[code]) == []


_CHECKPOINTED = """\
class Book:
    {exclude}def __init__(self):
        self._rows = {{}}
        self._scratch = []
    def state_dict(self):
        return {{'rows': self._rows}}
    def load_state_dict(self, state):
        self._rows = state['rows']
"""

#: seed -> (module of ``src/repro`` it is appended to, its source, the
#: ``(line in the seed, code)`` findings it adds).  One violation a rule,
#: then the special cases each rule must keep telling apart.
SEEDS = {
    "RL001 direct call": (
        "core/engine.py", "def seeded(model, f):\n    return model.score_frame(f)\n",
        [(2, "RL001")],
    ),
    "RL001 through a file-local forwarder": (
        "core/engine.py",
        "def forward(fn):\n    return invoke_with_retry(fn)\n"
        "def seeded(model, f):\n    return forward(lambda: model.score_frame(f))\n",
        [],
    ),
    "RL002 uncovered attribute": (
        "core/session.py", _CHECKPOINTED.format(exclude=""), [(4, "RL002")]
    ),
    "RL002 attribute in _CHECKPOINT_EXCLUDE": (
        "core/session.py",
        _CHECKPOINTED.format(exclude="_CHECKPOINT_EXCLUDE = frozenset({'_scratch'})\n    "),
        [],
    ),
    "RL003 unseeded generator": (
        "storage/columns.py", "RNG = np.random.default_rng()\n", [(1, "RL003")]
    ),
    "RL003 seeded generator": ("storage/columns.py", "RNG = np.random.default_rng(0)\n", []),
    "RL004 generic builtin": (
        "core/engine.py", "def seeded(v):\n    raise ValueError(v)\n", [(2, "RL004")]
    ),
    "RL004 AttributeError in __getattr__": (
        "core/engine.py",
        "class Proxy:\n    def __getattr__(self, name):\n        raise AttributeError(name)\n",
        [],
    ),
    "RL005 float literal": (
        "scanstats/critical.py", "def seeded(p):\n    return p == 0.5\n", [(2, "RL005")]
    ),
    "RL005 astype(float)": (
        "scanstats/critical.py",
        "def seeded(a, b):\n    return a.astype(float) == b\n",
        [(2, "RL005")],
    ),
}


@pytest.mark.parametrize("name", SEEDS)
def test_a_seed_in_a_shipped_module_adds_exactly_its_findings(name: str) -> None:
    """The rules tell a seeded violation from its legal twin inside real
    code, and leave the module's own findings as they were."""
    rel, seed, added = SEEDS[name]
    source = (PACKAGE / rel).read_text(encoding="utf-8").rstrip("\n") + "\n\n\n"
    offset = source.count("\n")
    module = ("repro", *Path(rel).with_suffix("").parts)
    before = [(line, code) for line, code, _ in check(source, module)]
    after = [(line, code) for line, code, _ in check(source + seed, module)]
    assert after == sorted(before + [(offset + line, code) for line, code in added])


def test_rl001_scope_excludes_detectors_package() -> None:
    source = _fixture("rl001_charge.py")
    assert check(source, ("repro", "detectors", "fixture_mod")) == []


def test_rl003_scope_is_replay_critical_packages_only() -> None:
    source = _fixture("rl003_determinism.py")
    # eval/ may use wall clocks and ad-hoc randomness freely.
    assert check(source, ("repro", "eval", "fixture_mod"), ["RL003"]) == []
    assert check(source, ("repro", "scanstats", "fixture_mod"), ["RL003"])


def test_rl002_reports_each_missing_attribute_once() -> None:
    findings = check(_fixture("rl002_checkpoint.py"), CORE)
    messages = [message for _, _, message in findings]
    assert len(messages) == 1
    assert "_forgotten" in messages[0]
    assert "_CHECKPOINT_EXCLUDE" in messages[0]


def test_rl004_whitelists_mapping_and_protocol_raises() -> None:
    findings = check(_fixture("rl004_taxonomy.py"), ("repro", "storage", "fixture_mod"))
    texts = "\n".join(message for _, _, message in findings)
    assert "KeyError" not in texts  # mapping semantics stay legal
    assert "AttributeError" not in texts  # __getattr__ protocol stays legal
