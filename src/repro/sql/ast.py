"""Abstract syntax tree of the SQL-like dialect."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class ProducedStream:
    """One ``<alias> USING <Model>`` item of the PROCESS clause."""

    alias: str
    model: str | None  # None for plain columns like clipID / frameSequence


@dataclass(frozen=True)
class ProcessClause:
    """``PROCESS <video> PRODUCE <streams>`` — the virtual table source."""

    video: str
    streams: tuple[ProducedStream, ...]

    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(s.alias for s in self.streams)


@dataclass(frozen=True)
class ActionEquals:
    """``act = 'jumping'``."""

    alias: str
    action: str


@dataclass(frozen=True)
class ObjectsInclude:
    """``obj.include('car', 'human')``."""

    alias: str
    labels: tuple[str, ...]


@dataclass(frozen=True)
class BooleanExpr:
    """``AND`` / ``OR`` combination of predicates."""

    op: str  # "AND" | "OR"
    operands: tuple["Predicate", ...]


Predicate = Union[ActionEquals, ObjectsInclude, BooleanExpr]


@dataclass(frozen=True)
class SelectItem:
    """One SELECT-list entry: ``MERGE(clipID) AS Sequence`` or
    ``RANK(act, obj)``."""

    function: str  # "MERGE" | "RANK" | "COLUMN"
    arguments: tuple[str, ...]
    alias: str | None = None


@dataclass(frozen=True)
class OrderBy:
    """``ORDER BY RANK(act, obj)`` — the only supported sort key."""

    function: str
    arguments: tuple[str, ...]


@dataclass(frozen=True)
class SelectStatement:
    """A full query: SELECT list, PROCESS source, WHERE tree, optional
    ORDER BY ... LIMIT."""

    select: tuple[SelectItem, ...]
    source: ProcessClause
    where: Predicate
    order_by: OrderBy | None = None
    limit: int | None = None

    @property
    def is_ranked(self) -> bool:
        return self.order_by is not None or self.limit is not None
