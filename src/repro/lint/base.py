"""Rule framework: findings, per-file context, and the rule registry.

A :class:`Rule` owns one code (``RLxxx``), declares which modules it
applies to, and yields :class:`Finding` objects from a parsed
:class:`LintContext`.  Rules register themselves with :func:`register`
at import time; :func:`all_rules` returns the registry so the runner and
the tests share one source of truth.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "register",
    "dotted_name",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: Qualified name of the enclosing scope (``Class.method`` or
    #: ``<module>``) — the stable anchor SARIF's partial fingerprint keys
    #: on, so a tracked alert survives unrelated line-number churn.
    context: str = "<module>"

    def fingerprint(self) -> tuple[str, str, str]:
        """Identity in SARIF output: survives line renumbering."""
        return (self.path, self.code, self.context)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "context": self.context,
        }


class LintContext:
    """One parsed source file plus the derived indexes rules need.

    ``module_parts`` is the dotted-module path relative to the package
    root (``src/repro/core/session.py`` → ``("repro", "core", "session")``;
    ``tests/core/test_x.py`` → ``("tests", "core", "test_x")``), which is
    what path-scoped rules match on.  ``parents`` maps every AST node to
    its parent so rules can walk outward (e.g. RL001 asking "is this call
    wrapped in ``invoke_with_retry``?").
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.module_parts = _module_parts(path)
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    # -- scope helpers -----------------------------------------------------------

    def in_module(self, *prefixes: tuple[str, ...]) -> bool:
        """True when the file's module path starts with any given prefix."""
        return any(
            self.module_parts[: len(prefix)] == prefix for prefix in prefixes
        )

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module node."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def qualname(self, node: ast.AST) -> str:
        """``Class.method``-style name of the scope enclosing ``node``."""
        names = [
            anc.name
            for anc in self.ancestors(node)
            if isinstance(anc, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        return ".".join(reversed(names)) or "<module>"

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
            context=self.qualname(node),
        )


def _module_parts(path: str) -> tuple[str, ...]:
    parts = list(PurePosixPath(path.replace("\\", "/")).parts)
    # Strip any leading source-root segments so scoping works no matter
    # where the linter is invoked from.
    for root in ("src", "Src"):
        if root in parts:
            parts = parts[parts.index(root) + 1 :]
            break
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return tuple(parts)


@dataclass
class Rule:
    """Base class for reprolint rules.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`applies_to` gates by module path so e.g. the determinism rule
    only runs over replay-critical packages.
    """

    code: str = "RL000"
    name: str = "unnamed"
    rationale: str = ""
    #: Module-path prefixes the rule runs on; empty means every file.
    scopes: tuple[tuple[str, ...], ...] = field(default_factory=tuple)
    #: Module-path prefixes always skipped (the linter never lints itself:
    #: its fixtures and rule tables would trip their own rules).
    excluded: tuple[tuple[str, ...], ...] = (("repro", "lint"),)

    def applies_to(self, ctx: LintContext) -> bool:
        if ctx.in_module(*self.excluded):
            return False
        if not self.scopes:
            return True
        return ctx.in_module(*self.scopes)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: Callable[[], Rule]) -> Callable[[], Rule]:
    """Class decorator: instantiate and index a rule by its code."""
    rule = rule_cls()
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule_cls


def all_rules() -> dict[str, Rule]:
    """Registered rules by code (importing the rules package on demand)."""
    import repro.lint.rules  # noqa: F401  (registration side effect)

    return dict(sorted(_REGISTRY.items()))


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_assigned_self_attrs(
    func: ast.FunctionDef, owner: str = "self"
) -> Iterator[tuple[str, int]]:
    """``(attr, lineno)`` for every ``self.X = ...`` style binding in ``func``."""
    for node in ast.walk(func):
        targets: Iterable[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.NamedExpr):
            targets = [node.target]
        else:
            continue
        stack = list(targets)
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
            elif isinstance(target, ast.Starred):
                stack.append(target.value)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == owner
            ):
                yield target.attr, target.lineno
