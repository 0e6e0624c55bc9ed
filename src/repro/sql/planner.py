"""Planner: lower a parsed statement to an executable plan.

The planner decides the execution mode (online streaming vs offline
ranked), collapses the WHERE tree into a :class:`repro.core.query.Query`
(or a CNF :class:`repro.core.query.CompoundQuery` when ``OR`` appears) and
carries the top-K cardinality.  Execution helpers then drive the
corresponding engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.context import ExecutionContext
from repro.core.engine import OfflineEngine, OnlineEngine
from repro.core.query import CompoundQuery, Query
from repro.core.rvaq import TopKResult
from repro.errors import PlanningError
from repro.sql.ast import (
    ActionEquals,
    BooleanExpr,
    ObjectsInclude,
    Predicate,
    SelectStatement,
)
from repro.video.synthesis import LabeledVideo

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.results import OnlineResult


@dataclass(frozen=True)
class Plan:
    """An executable lowering of one statement."""

    statement: SelectStatement
    mode: str  # "online" | "offline"
    query: Query | None
    compound: CompoundQuery | None
    k: int | None
    video: str

    def execute_online(
        self,
        engine: OnlineEngine,
        video: LabeledVideo,
        algorithm: str = "svaqd",
        *,
        context: ExecutionContext | None = None,
    ) -> "OnlineResult":
        """Run an online plan; OR queries execute through the compound
        (CNF) engine.  ``context`` collects per-stage execution counters
        across the run."""
        if self.mode != "online":
            raise PlanningError("plan is offline; use execute_offline")
        if self.query is not None:
            return engine.run(
                self.query, video, algorithm=algorithm, context=context
            )
        assert self.compound is not None
        return engine.run_compound(
            self.compound, video, algorithm=algorithm, context=context
        )

    def execute_offline(
        self, engine: OfflineEngine, algorithm: str = "rvaq"
    ) -> TopKResult:
        if self.mode != "offline":
            raise PlanningError("plan is online; use execute_online")
        if self.query is None:
            raise PlanningError("offline execution supports conjunctive queries")
        return engine.top_k(self.query, k=self.k, algorithm=algorithm)


def _collect_conjunction(predicate: Predicate) -> tuple[list[str], list[str]]:
    """Flatten an AND tree into (actions, objects); raises on OR."""
    actions: list[str] = []
    objects: list[str] = []

    def walk(node: Predicate) -> None:
        if isinstance(node, ActionEquals):
            actions.append(node.action)
        elif isinstance(node, ObjectsInclude):
            objects.extend(node.labels)
        elif isinstance(node, BooleanExpr) and node.op == "AND":
            for child in node.operands:
                walk(child)
        else:
            raise PlanningError("OR inside a conjunctive context")

    walk(predicate)
    return actions, objects


def _lower_query(predicate: Predicate) -> tuple[Query | None, CompoundQuery | None]:
    try:
        actions, objects = _collect_conjunction(predicate)
    except PlanningError:
        return None, _lower_compound(predicate)
    if not actions and not objects:
        raise PlanningError("query has no predicates")
    # De-duplicate while keeping user order (footnote 5: user-chosen order).
    seen: set[str] = set()
    objects = [o for o in objects if not (o in seen or seen.add(o))]
    return Query(objects=objects, actions=actions), None


def _lower_compound(predicate: Predicate) -> CompoundQuery:
    """Lower an OR-bearing WHERE tree into CNF clauses of literals."""
    if isinstance(predicate, BooleanExpr) and predicate.op == "AND":
        clauses: list[tuple[Query, ...]] = []
        for child in predicate.operands:
            clauses.extend(_lower_compound(child).clauses)
        return CompoundQuery(tuple(clauses))
    if isinstance(predicate, BooleanExpr) and predicate.op == "OR":
        literals: list[Query] = []
        for child in predicate.operands:
            query, compound = _lower_query(child)
            if query is None or compound is not None:
                raise PlanningError(
                    "nested OR-of-AND requires distribution; flatten the "
                    "WHERE clause to CNF"
                )
            literals.append(query)
        return CompoundQuery.disjunction(literals)
    query, _ = _lower_query(predicate)
    assert query is not None
    return CompoundQuery.conjunction([query])


def plan(statement: SelectStatement) -> Plan:
    """Lower a parsed statement into a :class:`Plan`."""
    has_merge = any(item.function == "MERGE" for item in statement.select)
    if not has_merge:
        raise PlanningError("SELECT list must contain MERGE(<column>)")
    if statement.is_ranked and statement.limit is None:
        raise PlanningError("ORDER BY RANK requires a LIMIT K")
    if statement.limit is not None and statement.order_by is None:
        raise PlanningError("LIMIT requires ORDER BY RANK(...)")

    # Validate that predicate aliases were produced by the PROCESS clause.
    produced = set(statement.source.aliases)

    def check(node: Predicate) -> None:
        if isinstance(node, (ActionEquals, ObjectsInclude)):
            if node.alias not in produced:
                raise PlanningError(
                    f"predicate alias {node.alias!r} not produced by "
                    f"PROCESS (have {sorted(produced)})"
                )
        elif isinstance(node, BooleanExpr):
            for child in node.operands:
                check(child)

    check(statement.where)

    query, compound = _lower_query(statement.where)
    return Plan(
        statement=statement,
        mode="offline" if statement.is_ranked else "online",
        query=query,
        compound=compound,
        k=statement.limit,
        video=statement.source.video,
    )
