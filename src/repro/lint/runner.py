"""File discovery, rule execution, pragma filtering, reporting.

The runner parses every file once, in one process, and runs every rule
over each tree: each rule is a walk over one file's AST.
"""

from __future__ import annotations

import ast
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.lint.base import Finding, LintContext, Rule, all_rules
from repro.lint.pragmas import FilePragmas

__all__ = ["LintReport", "collect_files", "lint_paths", "lint_source"]

#: Directory names never scanned anywhere in the tree.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})

#: The lint fixture tree holds *intentional* violations the test suite
#: feeds to the linter directly.  Only that one tree is exempt — a
#: ``src/repro/**/fixtures/`` package is ordinary code and gets linted
#: (the old blanket ``fixtures`` skip silently exempted it).
_FIXTURE_TREE = ("tests", "lint", "fixtures")


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    parse_errors: list[str] = field(default_factory=list)
    #: Per-rule wall time (seconds) across the check pass, plus the
    #: synthetic ``"<parse>"`` entry for reading and parsing the files.
    rule_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def counts(self) -> dict[str, int]:
        """Finding count per rule code, every rule present."""
        counts = {code: 0 for code in all_rules()}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts

    def _ordered_findings(self) -> list[Finding]:
        """Findings in the stable machine-output order: path, line, code."""
        return sorted(
            self.findings, key=lambda f: (f.path, f.line, f.code, f.col)
        )

    # -- output formats ----------------------------------------------------------

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        for error in self.parse_errors:
            lines.append(f"error: {error}")
        per_rule = ", ".join(
            f"{code}: {n}" for code, n in self.counts().items() if n
        )
        lines.append(
            f"{len(self.findings)} finding(s)"
            + (f" ({per_rule})" if per_rule else "")
            + f" in {self.files_checked} file(s);"
            f" {self.suppressed} suppressed"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "findings": [f.to_json() for f in self._ordered_findings()],
                "counts": self.counts(),
                "files_checked": self.files_checked,
                "suppressed": self.suppressed,
                "parse_errors": self.parse_errors,
            },
            indent=2,
            allow_nan=False,
        )

    def render_sarif(self) -> str:
        """SARIF 2.1.0 — the payload GitHub code scanning ingests."""
        rules = all_rules()
        descriptors = [
            {
                "id": code,
                "name": rule.name,
                "shortDescription": {"text": rule.name},
                "fullDescription": {"text": rule.rationale},
                "defaultConfiguration": {"level": "error"},
            }
            for code, rule in rules.items()
        ]
        results = [
            {
                "ruleId": finding.code,
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col,
                            },
                        }
                    }
                ],
                "partialFingerprints": {
                    "reprolint/v1": "/".join(finding.fingerprint()),
                },
            }
            for finding in self._ordered_findings()
        ]
        payload = {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "reprolint",
                            "informationUri": (
                                "https://example.invalid/repro/lint"
                            ),
                            "rules": descriptors,
                        }
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(payload, indent=2, allow_nan=False)

    def render_summary(self) -> str:
        """One markdown table — the CI job-summary payload."""
        rules = all_rules()
        counts = self.counts()
        timed = bool(self.rule_seconds)
        header = "| rule | name | findings |"
        divider = "| --- | --- | ---: |"
        if timed:
            header += " wall (ms) |"
            divider += " ---: |"
        lines = ["### reprolint", "", header, divider]
        for code, rule in rules.items():
            row = f"| {code} | {rule.name} | {counts.get(code, 0)} |"
            if timed:
                row += f" {self.rule_seconds.get(code, 0.0) * 1000:.1f} |"
            lines.append(row)
        total = f"| | **total** | **{len(self.findings)}** |"
        if timed:
            total += f" **{sum(self.rule_seconds.values()) * 1000:.1f}** |"
        lines.append(total)
        lines.append("")
        lines.append(
            f"{self.files_checked} files checked, "
            f"{self.suppressed} suppressed."
        )
        return "\n".join(lines)

    def render_stats(self) -> str:
        """Per-rule wall time, slowest first (``--stats``)."""
        lines = ["rule        wall (ms)"]
        for code, seconds in sorted(
            self.rule_seconds.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"{code:<12}{seconds * 1000:>8.1f}")
        lines.append(f"{'total':<12}{sum(self.rule_seconds.values()) * 1000:>8.1f}")
        return "\n".join(lines)


def _in_fixture_tree(path: Path) -> bool:
    parts = path.parts
    for i in range(len(parts) - len(_FIXTURE_TREE) + 1):
        if parts[i : i + len(_FIXTURE_TREE)] == _FIXTURE_TREE:
            return True
    return False


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into the sorted list of .py files to lint."""
    out: list[Path] = []
    for path in paths:
        if path.is_file():
            out.append(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if _SKIPPED_DIRS.intersection(sub.parts):
                    continue
                if _in_fixture_tree(sub):
                    continue
                out.append(sub)
    return out


def _parse_files(
    paths: Sequence[Path],
) -> tuple[dict[str, str], dict[str, ast.Module], list[str]]:
    """Read and parse every file once: (sources, trees, parse errors)."""
    sources: dict[str, str] = {}
    parsed: dict[str, ast.Module] = {}
    errors: list[str] = []
    for file_path in collect_files(paths):
        rel = file_path.as_posix()
        try:
            source = file_path.read_text(encoding="utf-8")
            parsed[rel] = ast.parse(source, filename=rel)
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            errors.append(f"{rel}: {exc}")
            continue
        sources[rel] = source
    return sources, parsed, errors


def _check_tree(
    rel: str,
    source: str,
    tree: ast.Module,
    rules: Mapping[str, Rule],
    rule_seconds: dict[str, float] | None = None,
) -> tuple[list[Finding], int]:
    """Run the active rules over one parsed file: (kept findings, suppressed)."""
    ctx = LintContext(path=rel, source=source, tree=tree)
    pragmas = FilePragmas(source)
    kept: list[Finding] = []
    suppressed = 0
    for rule in rules.values():
        if not rule.applies_to(ctx):
            continue
        start = time.perf_counter()
        found = list(rule.check(ctx))
        if rule_seconds is not None:
            rule_seconds[rule.code] = (
                rule_seconds.get(rule.code, 0.0) + time.perf_counter() - start
            )
        for finding in found:
            if pragmas.suppresses(finding):
                suppressed += 1
            else:
                kept.append(finding)
    return kept, suppressed


def lint_source(
    path: str, source: str, rules: Mapping[str, Rule] | None = None
) -> list[Finding]:
    """Lint one in-memory source file (pragmas applied) — the entry point
    the test suite feeds fixture files through."""
    active = rules if rules is not None else all_rules()
    tree = ast.parse(source, filename=path)
    findings, _ = _check_tree(path, source, tree, active)
    return sorted(findings)


# -- driver --------------------------------------------------------------------------


def lint_paths(
    paths: Sequence[Path],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] = (),
) -> LintReport:
    """Lint files/directories and return a filtered :class:`LintReport`."""
    rules = all_rules()
    if select is not None:
        wanted = {code.upper() for code in select}
        rules = {code: rule for code, rule in rules.items() if code in wanted}
    for code in ignore:
        rules.pop(code.upper(), None)

    report = LintReport()

    parse_start = time.perf_counter()
    sources, parsed, report.parse_errors = _parse_files(paths)
    report.rule_seconds["<parse>"] = time.perf_counter() - parse_start
    report.files_checked = len(parsed)
    for rel, tree in parsed.items():
        kept, suppressed = _check_tree(
            rel, sources[rel], tree, rules, report.rule_seconds
        )
        report.suppressed += suppressed
        report.findings.extend(kept)
    report.findings.sort()
    return report
