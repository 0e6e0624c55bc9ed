"""Self-check: the engine's own source holds the five contracts.

The rules of :mod:`tests.lint.rules` run over every file of ``src/repro``.
A finding fails here unless :data:`ALLOWLIST` carries it, and an entry that
matches no finding fails too.  The same test parses every ``.py`` file
under ``src``, ``tests``, ``benchmarks`` and ``examples``: the rules are
scoped to ``repro.*``, so the last three roots are parsed, not linted.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

from tests.lint.rules import RULES, lint_checkout

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The roots whose every file must parse.
ROOTS = ("src", "tests", "benchmarks", "examples")

#: (path, rule, stripped source line) -> why the finding is intended.  An
#: entry excuses exactly one finding.
ALLOWLIST = {
    ("src/repro/cli.py", "RL004", "except OSError:"): (
        "best-effort close of stdout on a pipe the reader closed; the exit is "
        "normal either way"
    ),
    ("src/repro/scanstats/critical.py", "RL005", "if p == 0.0:"): (
        "exact degenerate-probability branch of the quota"
    ),
    ("src/repro/scanstats/critical.py", "RL005", "if p == 1.0:"): (
        "exact degenerate-probability branch of the quota"
    ),
    ("src/repro/scanstats/binomial.py", "RL005", "if p == 0.0:"): (
        "exact degenerate-distribution branch of the log-pmf"
    ),
    ("src/repro/scanstats/binomial.py", "RL005", "if p == 1.0:"): (
        "exact degenerate-distribution branch of the log-pmf"
    ),
    ("src/repro/scanstats/markov.py", "RL005", "if total == 0.0:"): (
        "exact sentinel of a chain whose two states both absorb"
    ),
}


def unexcused(findings: list[tuple[str, int, str, str]], allowlist: dict) -> list[str]:
    """Each finding no entry excuses, and each entry that does not match
    exactly one finding."""
    matched = Counter((path, code, text) for path, _, code, text in findings)
    return [
        f"{path}:{line}: {code} {text}"
        for path, line, code, text in findings
        if (path, code, text) not in allowlist
    ] + [
        f"entry {entry} matches {matched[entry]} findings"
        for entry in allowlist
        if matched[entry] != 1
    ]


def test_src_holds_the_contracts_but_for_the_allowlist() -> None:
    findings, applied = lint_checkout(REPO_ROOT)
    assert unexcused(findings, ALLOWLIST) == []

    # Every rule really ran, scoped on the path under ``src``.
    assert all(applied[code] > 0 for code in RULES), applied
    package = REPO_ROOT / "src" / "repro"
    replay_critical = [
        path
        for path in package.rglob("*.py")
        if path.relative_to(package).parts[0] in ("core", "scanstats", "storage")
    ]
    assert applied["RL003"] == len(replay_critical)

    parsed = 0
    for root in ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            parsed += 1
    assert parsed > 200  # the walk really saw the repo


_FINDING = ("src/repro/cli.py", 7, "RL004", "except OSError:")


def test_the_allowlist_check_fails_on_a_finding_without_an_entry() -> None:
    assert unexcused([_FINDING], {}) == ["src/repro/cli.py:7: RL004 except OSError:"]


def test_the_allowlist_check_fails_on_an_entry_that_matches_no_finding() -> None:
    assert unexcused([], ALLOWLIST)[0].startswith("entry ('src/repro/cli.py'")
    assert len(unexcused([], ALLOWLIST)) == len(ALLOWLIST)


def test_the_allowlist_check_fails_on_an_entry_that_matches_two_findings() -> None:
    entry = {_FINDING[:1] + _FINDING[2:]: "why"}
    assert unexcused([_FINDING], entry) == []
    twice = [_FINDING, ("src/repro/cli.py", 9, "RL004", "except OSError:")]
    assert unexcused(twice, entry) == [f"entry {_FINDING[:1] + _FINDING[2:]} matches 2 findings"]


#: code -> (module under ``src/repro`` in the rule's scope, a violation of
#: the rule, the line it is reported at).
VIOLATIONS = {
    "RL001": ("core/engine.py", "def run(model, frame):\n    return model.score_frame(frame)\n", 2),
    "RL002": (
        "service/service.py",
        "class Book:\n"
        "    def __init__(self):\n"
        "        self._rows = {}\n"
        "    def state_dict(self):\n"
        "        return {}\n"
        "    def load_state_dict(self, state):\n"
        "        pass\n",
        3,
    ),
    "RL003": ("storage/columns.py", "import time\nSTAMP = time.time()\n", 2),
    "RL004": ("core/engine.py", "def run(value):\n    raise ValueError(value)\n", 2),
    "RL005": ("detectors/cache.py", "def same(x):\n    return x == 0.5\n", 2),
}


@pytest.mark.parametrize("code", VIOLATIONS)
def test_scopes_follow_the_path_under_the_checkout(tmp_path: Path, code: str) -> None:
    """A checkout that itself lies under a ``src`` directory is still scoped
    by the path under its own ``src``: the seeded violation is found."""
    rel, source, line = VIOLATIONS[code]
    checkout = tmp_path / "src" / "checkout"
    module = checkout / "src" / "repro" / rel
    module.parent.mkdir(parents=True)
    module.write_text(source)
    findings, applied = lint_checkout(checkout)
    text = source.splitlines()[line - 1].strip()
    assert findings == [(f"src/repro/{rel}", line, code, text)]
    assert applied[code] == 1


def test_the_walk_covers_src_repro_and_nothing_else(tmp_path: Path) -> None:
    """A ``fixtures`` package under ``src/repro`` is walked like any other;
    files outside ``src/repro`` are not."""
    violation = "def run(value):\n    raise ValueError(value)\n"
    for rel in ("src/repro/fixtures/mod.py", "tests/lint/fixtures/mod.py", "src/tool.py"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(violation)
    findings, applied = lint_checkout(tmp_path)
    assert findings == [("src/repro/fixtures/mod.py", 2, "RL004", "raise ValueError(value)")]
    assert applied["RL004"] == 1


def test_a_file_that_does_not_parse_fails_the_walk(tmp_path: Path) -> None:
    broken = tmp_path / "src" / "repro" / "core" / "broken.py"
    broken.parent.mkdir(parents=True)
    broken.write_text("def run(:\n")
    with pytest.raises(SyntaxError):
        lint_checkout(tmp_path)


def test_docs_and_fixtures_list_exactly_the_rules() -> None:
    """DESIGN.md's "Rule catalog" table, ``tests/lint/fixtures/`` and
    ``RULES`` name the same rules: the docs cannot list a rule that does
    not exist, and no rule ships without its marker fixture."""
    named = {code: name for code, (name, _) in RULES.items()}

    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    catalog = design.split("### Rule catalog", 1)[1].split("\n### ", 1)[0]
    documented = dict(re.findall(r"^\| (RL\d{3}) +\| (\S+) +\|", catalog, re.M))
    assert documented == named

    fixtures = sorted((REPO_ROOT / "tests/lint/fixtures").glob("*.py"))
    assert sorted(p.name[:5].upper() for p in fixtures) == sorted(named)
    for path in fixtures:
        assert ": finding" in path.read_text(encoding="utf-8"), path.name


def test_the_module_map_lists_exactly_the_package_modules() -> None:
    """DESIGN.md's module map names every module of ``src/repro`` and no
    other: a file under a directory line, one line a module.  A directory
    listed inside a package (``experiments/``, ``rules/``) stands for
    everything beneath it, a package line for its ``__init__.py``."""
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = design.split("## System inventory (module map)", 1)[1].split("```")[1]
    documented, folded, package = set(), [], ""
    for indent, name in re.findall(r"^(  |    )([\w.]+(?:\.py|/))(?=\s)", block, re.M):
        if indent == "    ":
            (folded.append if name.endswith("/") else documented.add)(package + name)
        elif name.endswith("/"):
            package = name
            documented.add(package + "__init__.py")
        else:
            package = ""
            documented.add(name)

    root = REPO_ROOT / "src" / "repro"
    shipped = {path.relative_to(root).as_posix() for path in root.rglob("*.py")}
    for directory in folded:
        beneath = {name for name in shipped if name.startswith(directory)}
        assert beneath, f"{directory} is listed and holds no module"
        shipped -= beneath
    assert sorted(documented) == sorted(shipped)


#: The names a persisted payload comes in by.
_RESTORE = re.compile(r"^(load_state_dict|from_state_dict|from_dict|\w+_from_dict)$")


def test_every_restore_entry_point_reads_through_the_one_reader() -> None:
    """Persisted input has one door: every restore entry point in
    ``src/repro`` calls ``read_record`` (an abstract declaration excepted),
    and the hand-written typed reads it replaced are gone."""
    entry_points, bypassing = 0, []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        for name in ("require_keys", "require_type", "require_list_of"):
            assert not re.search(rf"\b{name}\b", source), f"{path}: {name}"
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.FunctionDef) or not _RESTORE.match(node.name):
                continue
            if any(getattr(d, "id", None) == "abstractmethod" for d in node.decorator_list):
                continue
            entry_points += 1
            calls = {
                getattr(call.func, "id", None)
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            }
            if "read_record" not in calls:
                bypassing.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno} {node.name}")
    assert entry_points >= 17
    assert bypassing == []


#: The names a persisted payload goes out by.
_WRITE = re.compile(r"^(state_dict|to_dict|\w+_to_dict)$")


def test_every_writer_writes_through_the_one_writer() -> None:
    """Persisted output has one door too: every ``state_dict`` / ``to_dict``
    / ``*_to_dict`` in ``src/repro`` calls ``write_record`` (an abstract
    declaration excepted; ``CostMeter.__getstate__`` is the pickle
    protocol, not a writer), and only the reader reads a version or a
    format tag."""
    writers, bypassing = 0, []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.name != "validation.py":
            assert not re.search(r"\.get\(['\"](version|format)['\"]", source), path
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.FunctionDef) or not _WRITE.match(node.name):
                continue
            if any(getattr(d, "id", None) == "abstractmethod" for d in node.decorator_list):
                continue
            writers += 1
            calls = {
                getattr(call.func, "id", None)
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            }
            if "write_record" not in calls:
                bypassing.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno} {node.name}")
    assert writers >= 14
    assert bypassing == []
