"""RL010 meter-conservation: a charge that can be abandoned must be refunded.

PR 9's double-charge bug: the chunked path charged the
:class:`~repro.detectors.cost.CostMeter` per chunk, an error abandoned
the chunk mid-flight, and the retry charged again — the meter drifted
from the ground-truth spend and every adaptive decision downstream
(quota, ordering) was made on wrong numbers.  The conservation law is
simple: on every path from a ``meter.record(...)`` to an abrupt exit,
the unit must be refunded or merged before the raise.

The check is the gen/kill pairing query on the CFG
(:func:`repro.lint.dataflow.paths_reaching`): from each charge
statement, is any ``raise`` reachable without passing a refund
statement?  An enclosing ``try`` whose handler or ``finally`` performs
the refund settles the path and is honoured (the handler edge is not in
the CFG for nested statements, so that case is recognised on the AST).
``repro/detectors`` itself is exempt — it *implements* the meter, and
its internal bookkeeping (e.g. refund-then-rethrow) is the machinery
the rest of the engine is being held to.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.base import Finding, LintContext, Rule, dotted_name, register
from repro.lint.dataflow import build_cfg, enclosing_statements, paths_reaching

#: Meter methods that charge a unit.
CHARGE_METHODS = frozenset({"record", "record_cached"})

#: Meter (or bookkeeping) methods that settle a charged unit: refunds,
#: merging a sub-meter into the parent, salvage.
SETTLE_METHODS = frozenset(
    {
        "refund",
        "refund_cached",
        "merge",
        "salvage",
        "consume",
        "record_giveup",
    }
)


def _is_meter_call(node: ast.Call, methods: frozenset[str]) -> bool:
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in methods:
        return False
    receiver = dotted_name(func.value)
    return receiver is not None and "meter" in receiver.lower()


def _settles(stmt: ast.stmt) -> bool:
    """Does this statement (sub-tree) perform any settling call?"""
    return any(
        isinstance(node, ast.Call) and _is_meter_call(node, SETTLE_METHODS)
        for node in ast.walk(stmt)
    )


def _settled_by_enclosing_try(ctx: LintContext, node: ast.AST) -> bool:
    """True when an enclosing ``try`` refunds in a handler or ``finally``
    — the raise escapes *through* the settlement, so the unit is safe
    even though the CFG (which only models handler edges for top-level
    try-body statements) cannot see it."""
    for anc in ctx.ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        if not isinstance(anc, ast.Try):
            continue
        for handler in anc.handlers:
            if any(_settles(stmt) for stmt in handler.body):
                return True
        if any(_settles(stmt) for stmt in anc.finalbody):
            return True
    return False


@register
@dataclass
class MeterConservationRule(Rule):
    code: str = "RL010"
    name: str = "meter-conservation"
    rationale: str = (
        "a CostMeter charge abandoned by a raise without a refund "
        "drifts the meter from ground-truth spend"
    )
    scopes: tuple[tuple[str, ...], ...] = (("repro",),)
    excluded: tuple[tuple[str, ...], ...] = field(
        default_factory=lambda: (("repro", "lint"), ("repro", "detectors"))
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(ctx, func)

    def _check_function(
        self, ctx: LintContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        enclosing = enclosing_statements(func)
        charges: list[tuple[ast.Call, ast.stmt]] = []
        for node, stmt in enclosing.items():
            if isinstance(node, ast.Call) and _is_meter_call(
                node, CHARGE_METHODS
            ):
                charges.append((node, stmt))
        if not charges:
            return
        cfg = build_cfg(func)
        settle_nodes = [
            index
            for index, stmt in cfg.statements()
            if _settles(stmt)
        ]
        raise_nodes = {
            index: stmt
            for index, stmt in cfg.statements()
            if isinstance(stmt, ast.Raise)
        }
        for call, stmt in charges:
            start = cfg.node_of(stmt)
            if start is None:
                continue
            escaped = paths_reaching(
                cfg,
                start,
                raise_nodes,
                avoiding=(i for i in settle_nodes if i != start),
            )
            for index in sorted(escaped):
                raise_stmt = raise_nodes[index]
                if _settled_by_enclosing_try(ctx, raise_stmt):
                    continue
                receiver = dotted_name(call.func) or "meter"
                yield ctx.finding(
                    call,
                    self.code,
                    f"{receiver}(...) charge can be abandoned by the raise "
                    f"at line {raise_stmt.lineno} without a refund on "
                    "that path; settle the unit (refund, merge) before "
                    "propagating the error",
                )
                break  # one finding per charge, not per escaping raise