"""The docs and examples name only knobs the configs have.

Every ``OnlineConfig(...)`` / ``RankingConfig(...)`` call in README.md,
DESIGN.md (fenced ``python`` blocks and inline code spans) and
``examples/`` may pass only keywords that are fields of that config, and
every ``OnlineConfig.<name>`` mention must name a field or attribute.  A
removed knob then cannot live on in the docs.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

from repro.core.config import OnlineConfig, RankingConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {cls.__name__: cls for cls in (OnlineConfig, RankingConfig)}
_BLOCK = re.compile(r"```python\n(.*?)```", re.S)
_SPAN = re.compile(r"`([^`\n]*(?:%s)[^`\n]*)`" % "|".join(CONFIGS))


def snippets() -> list[tuple[str, str]]:
    """``(where, source)`` of every piece of code that may name a knob."""
    found = []
    for name in ("README.md", "DESIGN.md"):
        text = (REPO_ROOT / name).read_text(encoding="utf-8")
        found += [(f"{name} python block", block) for block in _BLOCK.findall(text)]
        found += [(f"{name} `{span}`", span) for span in _SPAN.findall(text)]
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        found.append((f"examples/{path.name}", path.read_text(encoding="utf-8")))
    return found


def _fields(name: str) -> set[str]:
    return {f.name for f in dataclasses.fields(CONFIGS[name])}


def unknown_knobs(source: str) -> tuple[list[str], int]:
    """The config keywords/attributes ``source`` names that do not exist,
    and how many config mentions it made in all."""
    bad, seen = [], 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in CONFIGS:
                seen += 1
                bad += [
                    f"{name}({kw.arg}=...)"
                    for kw in node.keywords
                    if kw.arg is not None and kw.arg not in _fields(name)
                ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in CONFIGS
        ):
            seen += 1
            name = node.value.id
            if node.attr not in _fields(name) and not hasattr(CONFIGS[name], node.attr):
                bad.append(f"{name}.{node.attr}")
    return sorted(bad), seen


def test_docs_and_examples_name_only_existing_knobs():
    mentions, bad = 0, []
    for where, source in snippets():
        try:
            unknown, seen = unknown_knobs(source)
        except SyntaxError as error:
            raise AssertionError(f"{where} does not parse: {error}") from error
        mentions += seen
        bad += [f"{where}: {knob}" for knob in unknown]
    assert not bad, "docs name knobs the configs do not have:\n" + "\n".join(bad)
    assert mentions >= 8  # the README's call, its spans and the examples'


def test_a_removed_knob_is_caught():
    assert unknown_knobs(
        "OnlineConfig(alpha=0.05, object_threshold=0.3)\n"
        "RankingConfig(default_k=3, top=2)\n"
        "OnlineConfig.action_threshold = 0.5\n"
        "OnlineConfig.with_p0\n"
    ) == (
        [
            "OnlineConfig(object_threshold=...)",
            "OnlineConfig.action_threshold",
            "RankingConfig(top=...)",
        ],
        4,
    )
