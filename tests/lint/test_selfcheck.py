"""Self-check: the engine's own source is clean under the full rule set.

This is the CI gate in test form — no baseline, every rule active.  If a
future change reintroduces an unguarded model invocation, an incomplete
``state_dict``, unseeded randomness, a stray builtin raise or a float
``==``, this test names it before the PR lands.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.lint import all_rules
from repro.lint.runner import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_and_tests_are_clean_without_a_baseline() -> None:
    report = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
    assert report.files_checked > 100  # the walk really saw the repo
    rendered = report.render_text()
    assert report.parse_errors == [], rendered
    assert report.findings == [], rendered


def test_every_rule_actually_ran_over_src() -> None:
    """Guards against a rule silently dropping out of the registry."""
    report = lint_paths([REPO_ROOT / "src"])
    assert set(report.counts()) >= {"RL001", "RL002", "RL003", "RL004", "RL005"}


def test_docs_and_fixtures_list_exactly_the_registered_rules() -> None:
    """DESIGN.md's "Rule catalog" table, ``tests/lint/fixtures/`` and the
    registry name the same rules: the docs cannot list a rule that does
    not exist, and no rule ships without its marker fixture."""
    registered = {code: rule.name for code, rule in all_rules().items()}

    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    catalog = design.split("### Rule catalog", 1)[1].split("\n### ", 1)[0]
    documented = dict(re.findall(r"^\| (RL\d{3}) +\| (\S+) +\|", catalog, re.M))
    assert documented == registered

    fixtures = sorted((REPO_ROOT / "tests/lint/fixtures").glob("*.py"))
    assert sorted(p.name[:5].upper() for p in fixtures) == sorted(registered)
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
