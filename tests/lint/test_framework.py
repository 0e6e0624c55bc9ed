"""Framework behaviour: pragmas, CLI, reports."""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.lint import Finding
from repro.lint.__main__ import main
from repro.lint.base import LintContext, Rule
from repro.lint.pragmas import FilePragmas
from repro.lint.runner import lint_paths, lint_source

BAD_DETERMINISM = (
    "import random\n"
    "\n"
    "def f():\n"
    "    return random.random()\n"
)

FAKE_PATH = "src/repro/core/mod.py"


# -- pragmas ---------------------------------------------------------------------


def test_same_line_pragma_suppresses() -> None:
    source = BAD_DETERMINISM.replace(
        "return random.random()",
        "return random.random()  # reprolint: disable=RL003",
    )
    assert lint_source(FAKE_PATH, source) == []


def test_disable_next_pragma_suppresses_following_line() -> None:
    source = BAD_DETERMINISM.replace(
        "    return random.random()",
        "    # reprolint: disable-next=RL003\n    return random.random()",
    )
    assert lint_source(FAKE_PATH, source) == []


def test_file_pragma_suppresses_everywhere() -> None:
    source = "# reprolint: disable-file=RL003\n" + BAD_DETERMINISM
    assert lint_source(FAKE_PATH, source) == []


def test_pragma_for_other_code_does_not_suppress() -> None:
    source = BAD_DETERMINISM.replace(
        "return random.random()",
        "return random.random()  # reprolint: disable=RL001",
    )
    findings = lint_source(FAKE_PATH, source)
    assert [f.code for f in findings] == ["RL003"]


def test_pragma_all_and_multiple_codes() -> None:
    assert lint_source(
        FAKE_PATH,
        BAD_DETERMINISM.replace(
            "return random.random()",
            "return random.random()  # reprolint: disable=all",
        ),
    ) == []
    pragmas = FilePragmas("x = 1  # reprolint: disable=RL001, RL005\n")
    assert pragmas.by_line[1] == {"RL001", "RL005"}


def test_disable_next_with_multiple_codes_suppresses_each() -> None:
    source = BAD_DETERMINISM.replace(
        "    return random.random()",
        "    # reprolint: disable-next=RL001, RL003\n"
        "    return random.random()",
    )
    assert lint_source(FAKE_PATH, source) == []


def test_disable_next_skips_blank_and_comment_lines() -> None:
    source = BAD_DETERMINISM.replace(
        "    return random.random()",
        "    # reprolint: disable-next=RL003\n"
        "\n"
        "    # the RNG below is intentional\n"
        "    return random.random()",
    )
    assert lint_source(FAKE_PATH, source) == []


_VERSIONED_PREFIX = (
    "def deco(fn):\n"
    "    return fn\n"
    "\n"
    "class Gate:\n"
    "    def state_dict(self):\n"
    '        return {"open": True}\n'
    "\n"
)


@dataclass
class _FlagsRestores(Rule):
    """A rule about a definition: its finding anchors on the ``def`` line
    of every ``load_state_dict``."""

    code: str = "RL900"
    name: str = "flags-restores"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef) and node.name == "load_state_dict":
                yield ctx.finding(node, self.code, "restore")


def _lint_recorded(source: str) -> list[Finding]:
    """Lint one file with only the definition rule active."""
    return lint_source(FAKE_PATH, source, rules={"RL900": _FlagsRestores()})


def test_disable_next_covers_a_decorated_def() -> None:
    """The finding anchors on the ``def`` line, two lines below the
    pragma — the decorator stack in between must not break suppression."""
    rogue = (
        "    @deco\n"
        "    def load_state_dict(self, state):\n"
        "        return None\n"
    )
    findings = _lint_recorded(_VERSIONED_PREFIX + rogue)
    assert [f.code for f in findings] == ["RL900"]
    suppressed = (
        _VERSIONED_PREFIX + "    # reprolint: disable-next=RL900\n" + rogue
    )
    assert _lint_recorded(suppressed) == []


def test_disable_next_covers_a_multi_line_decorator_call() -> None:
    rogue = (
        "    @deco(\n"
        "    )\n"
        "    def load_state_dict(self, state):\n"
        "        return None\n"
    )
    suppressed = (
        _VERSIONED_PREFIX + "    # reprolint: disable-next=RL900\n" + rogue
    )
    assert _lint_recorded(suppressed) == []


def test_disable_next_on_a_multi_line_signature() -> None:
    rogue = (
        "    def load_state_dict(\n"
        "        self,\n"
        "        state,\n"
        "    ):\n"
        "        return None\n"
    )
    findings = _lint_recorded(_VERSIONED_PREFIX + rogue)
    assert [f.code for f in findings] == ["RL900"]
    suppressed = (
        _VERSIONED_PREFIX + "    # reprolint: disable-next=RL900\n" + rogue
    )
    assert _lint_recorded(suppressed) == []


def test_disable_next_on_the_last_line_is_harmless() -> None:
    source = BAD_DETERMINISM + "# reprolint: disable-next=RL003"
    findings = lint_source(FAKE_PATH, source)
    assert [f.code for f in findings] == ["RL003"]


# -- runner / report -------------------------------------------------------------


def _finding(line: int = 4, context: str = "f") -> Finding:
    return Finding(
        path=FAKE_PATH, line=line, col=12, code="RL003",
        message="global-state RNG", context=context,
    )


def test_fixture_directories_are_never_scanned(tmp_path: Path) -> None:
    nested = tmp_path / "tests" / "lint" / "fixtures"
    nested.mkdir(parents=True)
    (nested / "bad.py").write_text(BAD_DETERMINISM, encoding="utf-8")
    report = lint_paths([tmp_path])
    assert report.files_checked == 0


def test_fixtures_package_under_src_is_scanned(tmp_path: Path) -> None:
    """Regression: only ``tests/lint/fixtures`` is exempt.  A directory
    that merely *contains* ``fixtures`` in its name or path — e.g. a
    ``src/repro/**/fixtures/`` data package — is ordinary code."""
    nested = tmp_path / "src" / "repro" / "core" / "fixtures"
    nested.mkdir(parents=True)
    (nested / "mod.py").write_text(BAD_DETERMINISM, encoding="utf-8")
    report = lint_paths([tmp_path / "src"])
    assert report.files_checked == 1
    assert [f.code for f in report.findings] == ["RL003"]


def test_parse_error_fails_the_run(tmp_path: Path) -> None:
    src = tmp_path / "src" / "repro" / "core"
    src.mkdir(parents=True)
    (src / "broken.py").write_text("def f(:\n", encoding="utf-8")
    report = lint_paths([tmp_path / "src"])
    assert not report.ok
    assert report.parse_errors


def test_report_counts_cover_every_rule(tmp_path: Path) -> None:
    report = lint_paths([tmp_path])
    counts = report.counts()
    assert set(counts) >= {"RL001", "RL002", "RL003", "RL004", "RL005"}
    assert all(n == 0 for n in counts.values())
    assert "RL003 | determinism | 0" in report.render_summary().replace("| R", "R")


# -- CLI -------------------------------------------------------------------------


def _write_bad_tree(tmp_path: Path) -> Path:
    src = tmp_path / "src" / "repro" / "core"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(BAD_DETERMINISM, encoding="utf-8")
    return tmp_path / "src"


def test_cli_exit_codes_and_json(tmp_path: Path, capsys) -> None:
    root = _write_bad_tree(tmp_path)
    assert main([str(root)]) == 1
    capsys.readouterr()
    assert main([str(root), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["RL003"] == 1
    assert data["findings"][0]["code"] == "RL003"


def test_cli_select_and_ignore(tmp_path: Path, capsys) -> None:
    root = _write_bad_tree(tmp_path)
    assert main([str(root), "--select", "RL001"]) == 0
    assert main([str(root), "--ignore", "RL003"]) == 0
    capsys.readouterr()


def test_cli_list_rules_and_summary(tmp_path: Path, capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RL001", "RL002", "RL003", "RL004", "RL005"):
        assert code in out
    root = _write_bad_tree(tmp_path)
    assert main([str(root), "--summary"]) == 1
    assert "### reprolint" in capsys.readouterr().out


# -- deterministic machine output ------------------------------------------------


def test_render_json_orders_findings_by_path_line_code() -> None:
    from repro.lint.runner import LintReport

    scrambled = [
        _finding(line=9),
        Finding(path="src/repro/b.py", line=2, col=0, code="RL005",
                message="m", context="f"),
        Finding(path="src/repro/b.py", line=2, col=0, code="RL001",
                message="m", context="f"),
        _finding(line=4),
    ]
    report = LintReport(findings=scrambled)
    data = json.loads(report.render_json())
    ordered = [(f["path"], f["line"], f["code"]) for f in data["findings"]]
    assert ordered == sorted(ordered)
    # Rendering twice is byte-identical (no set/dict iteration leaks).
    assert report.render_json() == report.render_json()


def test_cli_sarif_output(tmp_path: Path, capsys) -> None:
    root = _write_bad_tree(tmp_path)
    assert main([str(root), "--format", "sarif"]) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} >= {
        "RL001", "RL005",
    }
    result = run["results"][0]
    assert result["ruleId"] == "RL003"
    assert result["locations"][0]["physicalLocation"]["region"]["startLine"] == 4
    assert "reprolint/v1" in result["partialFingerprints"]


# -- per-rule timing ------------------------------------------------------------


def _write_two_file_tree(tmp_path: Path) -> Path:
    src = tmp_path / "src" / "repro" / "core"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(BAD_DETERMINISM, encoding="utf-8")
    (src / "clean.py").write_text("def g():\n    return 1\n", encoding="utf-8")
    return tmp_path / "src"


def test_stats_records_per_rule_wall_time(tmp_path: Path, capsys) -> None:
    root = _write_two_file_tree(tmp_path)
    report = lint_paths([root])
    assert "<parse>" in report.rule_seconds
    assert "RL003" in report.rule_seconds
    assert all(t >= 0 for t in report.rule_seconds.values())
    stats = report.render_stats()
    assert "wall (ms)" in stats and "total" in stats
    assert main([str(root), "--stats"]) == 1
    assert "wall (ms)" in capsys.readouterr().out
