"""RL002 checkpoint-completeness: ``state_dict`` covers every attribute.

Checkpoint/resume (PR 1) and fault replay (PR 4) depend on a class's
``state_dict`` round-tripping *all* of its mutable state: an attribute
added to ``__init__`` but forgotten in ``state_dict`` resumes with a
stale default and silently diverges from the uninterrupted run.

The rule fires on any class that defines ``state_dict`` together with a
restore method (``load_state_dict`` or ``from_state_dict``) and has an
``__init__``-assigned ``self.*`` attribute that is neither referenced in
any of those methods (nor in ``state``, the record ``state_dict`` writes)
nor listed in an explicit class-level
``_CHECKPOINT_EXCLUDE`` — the documented opt-out for attributes that are
reconstructed from constructor arguments rather than checkpointed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.base import (
    Finding,
    LintContext,
    Rule,
    iter_assigned_self_attrs,
    register,
)

#: The writer, the record it writes, then the restore methods.
_STATE_METHODS = ("state_dict", "state", "load_state_dict", "from_state_dict")
_EXCLUDE_ATTR = "_CHECKPOINT_EXCLUDE"


@register
@dataclass
class CheckpointCompletenessRule(Rule):
    code: str = "RL002"
    name: str = "checkpoint-completeness"
    rationale: str = (
        "an attribute missing from state_dict resumes stale and makes "
        "a restored run diverge from the uninterrupted one"
    )
    scopes: tuple[tuple[str, ...], ...] = (("repro",),)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: LintContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "state_dict" not in methods:
            return
        if not any(name in methods for name in _STATE_METHODS[2:]):
            return
        init = methods.get("__init__")
        if init is None:
            return

        covered = self._excluded_names(cls)
        for name in _STATE_METHODS:
            method = methods.get(name)
            if method is None:
                continue
            # Any attribute *mentioned* in the checkpoint methods counts as
            # covered — read in state_dict, or rebuilt/reset in the restore
            # path — regardless of which local name holds the instance
            # (``self`` in methods, a constructed object in classmethods).
            for sub in ast.walk(method):
                if isinstance(sub, ast.Attribute):
                    covered.add(sub.attr)

        seen: set[str] = set()
        for attr, lineno in iter_assigned_self_attrs(init):
            if attr in covered or attr in seen:
                continue
            seen.add(attr)
            yield Finding(
                path=ctx.path,
                line=lineno,
                col=1,
                code=self.code,
                message=(
                    f"attribute self.{attr} is assigned in {cls.name}.__init__ "
                    "but neither referenced by its checkpoint methods "
                    f"({'/'.join(n for n in _STATE_METHODS if n in methods)}) "
                    f"nor listed in {cls.name}.{_EXCLUDE_ATTR}; checkpoint it "
                    "or declare it reconstructed-by-the-caller"
                ),
                context=f"{cls.name}.__init__",
            )

    @staticmethod
    def _excluded_names(cls: ast.ClassDef) -> set[str]:
        """String entries of a class-level ``_CHECKPOINT_EXCLUDE`` literal."""
        names: set[str] = set()
        for stmt in cls.body:
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == _EXCLUDE_ATTR
                for t in stmt.targets
            ):
                value = stmt.value
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == _EXCLUDE_ATTR
            ):
                value = stmt.value
            if value is None:
                continue
            if isinstance(value, ast.Call) and value.args:
                # frozenset({...}) / tuple([...]) wrappers
                value = value.args[0]
            if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
                for elt in value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        names.add(elt.value)
        return names
