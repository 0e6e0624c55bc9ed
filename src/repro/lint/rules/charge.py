"""RL001 charge-discipline: model invocations go through the retry boundary.

Every crossing from bookkeeping into a deployed model must funnel through
:func:`repro.detectors.retry.invoke_with_retry` — that is where retries
are budgeted, corrupted output is rejected, and (because the simulated
models charge their :class:`~repro.detectors.cost.CostMeter` inside the
call) where a unit is charged exactly once per *successful* invocation
path.  A direct ``zoo.detector.score_video(...)`` elsewhere silently
bypasses retry accounting and degradation, which is precisely the bug
class PR 4 was built to prevent.

The detectors package itself is whitelisted: the cache, the fault
proxies and the simulated models are the layers that *implement* the
boundary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.base import Finding, LintContext, Rule, dotted_name, register

#: The engine's model-invocation surface (detector/recognizer/tracker
#: protocols) plus the generic names future model wrappers tend to use.
INVOCATION_METHODS = frozenset(
    {
        "score_frame",
        "score_shot",
        "score_video",
        "tracks_in_clip",
        "tracks_in_video",
        "detect",
        "classify",
        "predict",
    }
)

#: Callables that establish the retry boundary.
RETRY_WRAPPERS = frozenset({"invoke_with_retry"})


@register
@dataclass
class ChargeDisciplineRule(Rule):
    code: str = "RL001"
    name: str = "charge-discipline"
    rationale: str = (
        "direct detector/zoo invocations outside detectors/ bypass "
        "retry budgets and exactly-once cost charging"
    )
    scopes: tuple[tuple[str, ...], ...] = (("repro",),)
    excluded: tuple[tuple[str, ...], ...] = field(
        default_factory=lambda: (("repro", "lint"), ("repro", "detectors"))
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        wrappers = self._local_wrappers(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in INVOCATION_METHODS
            ):
                continue
            if self._wrapped_in_retry(ctx, node, wrappers):
                continue
            target = dotted_name(func) or f"<expr>.{func.attr}"
            yield ctx.finding(
                node,
                self.code,
                f"direct model invocation {target}(...) outside "
                "invoke_with_retry; route it through the retry boundary "
                "(repro.detectors.retry) so failures are retried and "
                "cost is charged exactly once",
            )

    @staticmethod
    def _local_wrappers(ctx: LintContext) -> frozenset[str]:
        """File-local functions that forward callables to the retry boundary.

        A helper like ``storage.ingest._invoke`` receives a thunk and
        passes it to ``invoke_with_retry`` itself; lambdas handed to such
        a helper are inside the boundary too.  Computed to a fixpoint so
        wrappers-of-wrappers also count.
        """
        wrappers = set(RETRY_WRAPPERS)
        functions = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        changed = True
        while changed:
            changed = False
            for func in functions:
                if func.name in wrappers:
                    continue
                for sub in ast.walk(func):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id in wrappers
                    ):
                        wrappers.add(func.name)
                        changed = True
                        break
        return frozenset(wrappers)

    @staticmethod
    def _wrapped_in_retry(
        ctx: LintContext, call: ast.Call, wrappers: frozenset[str]
    ) -> bool:
        """True when ``call`` sits in a lambda/def passed to a wrapper.

        Walks outward from the invocation; every enclosing ``lambda`` or
        nested ``def`` is checked for being an argument of a call to the
        retry boundary (``invoke_with_retry`` or a file-local forwarding
        helper).  That matches the engine idiom
        (``invoke_with_retry(lambda: zoo.detector.score_video(...), ...)``)
        without needing type inference.
        """
        node: ast.AST = call
        for parent in ctx.ancestors(call):
            if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(parent, ast.Call):
                    wrapper = parent.func
                    wrapper_name = (
                        wrapper.attr
                        if isinstance(wrapper, ast.Attribute)
                        else wrapper.id
                        if isinstance(wrapper, ast.Name)
                        else None
                    )
                    if wrapper_name in wrappers:
                        return True
            node = parent
        return False
