"""The query model.

The paper's canonical query is a conjunction of one action predicate and
zero or more object-presence predicates (§2):

    ``q : {o_1, ..., o_I ∈ O; a ∈ A}``

Footnotes 2–4 sketch extensions — object-relationship predicates (binary
per-frame indicators), multiple actions (conjunction of per-clip action
indicators) and disjunctions (evaluate per-clause indicators over the CNF).
:class:`Query` models the canonical form; :class:`CompoundQuery` models a
CNF of :class:`Query`-like clauses and is what the SQL layer lowers OR
queries into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import QueryError


@dataclass(frozen=True)
class Query:
    """A conjunctive action+objects query.

    ``objects`` keeps user order: the paper evaluates predicates
    sequentially and short-circuits on the first negative (Algorithm 2,
    footnote 5 leaves ordering "based on user expertise"); the ablation
    benchmark reorders by selectivity instead.

    ``actions`` usually holds exactly one action; more than one encodes the
    footnote 3 multiple-actions extension (all must be present).
    ``relationships`` holds opaque relationship labels evaluated as binary
    per-frame indicators (footnote 2) — they behave exactly like object
    predicates with their own event streams.
    """

    objects: tuple[str, ...]
    actions: tuple[str, ...]
    relationships: tuple[str, ...] = ()

    def __init__(
        self,
        objects: Iterable[str] = (),
        action: str | None = None,
        *,
        actions: Iterable[str] = (),
        relationships: Iterable[str] = (),
    ) -> None:
        all_actions = tuple(actions) if actions else ()
        if action is not None:
            all_actions = (action, *all_actions)
        object.__setattr__(self, "objects", tuple(objects))
        object.__setattr__(self, "actions", all_actions)
        object.__setattr__(self, "relationships", tuple(relationships))
        self._validate()

    def _validate(self) -> None:
        if not self.actions and not self.objects and not self.relationships:
            raise QueryError("a query needs at least one predicate")
        for group_name, group in (
            ("objects", self.objects),
            ("actions", self.actions),
            ("relationships", self.relationships),
        ):
            if len(set(group)) != len(group):
                raise QueryError(f"duplicate {group_name} predicates in query")
            for label in group:
                if not label or not isinstance(label, str):
                    raise QueryError(f"invalid {group_name} label {label!r}")

    # -- convenience -----------------------------------------------------------

    @property
    def action(self) -> str:
        """The single action of a canonical query."""
        if len(self.actions) != 1:
            raise QueryError(
                f"query has {len(self.actions)} actions; use .actions"
            )
        return self.actions[0]

    @property
    def frame_level_labels(self) -> tuple[str, ...]:
        """Predicates whose occurrence unit is a frame (objects and
        relationship indicators)."""
        return (*self.objects, *self.relationships)

    @property
    def all_labels(self) -> tuple[str, ...]:
        return (*self.objects, *self.relationships, *self.actions)

    @property
    def n_predicates(self) -> int:
        return len(self.all_labels)

    def describe(self) -> str:
        parts = [f"a={a}" for a in self.actions]
        parts += [f"o{i + 1}={o}" for i, o in enumerate(self.objects)]
        parts += [f"rel={r}" for r in self.relationships]
        return "q:{" + "; ".join(parts) + "}"

    def validate_against(
        self,
        object_vocabulary: frozenset[str] | None,
        action_vocabulary: frozenset[str] | None,
    ) -> None:
        """Check all labels are supported by the deployed models.

        ``None`` vocabularies are open (simulated models accept any label).
        """
        if object_vocabulary is not None:
            unknown = [o for o in self.objects if o not in object_vocabulary]
            if unknown:
                raise QueryError(f"objects outside detector vocabulary: {unknown}")
        if action_vocabulary is not None:
            unknown = [a for a in self.actions if a not in action_vocabulary]
            if unknown:
                raise QueryError(f"actions outside recognizer vocabulary: {unknown}")


@dataclass(frozen=True)
class CompoundQuery:
    """A conjunctive normal form over predicate literals (footnote 4).

    Each clause is a disjunction of :class:`Query` objects; the compound
    query is satisfied on a clip iff every clause has at least one satisfied
    disjunct.  ``Query`` is the degenerate single-clause, single-literal
    case; the online engines evaluate a compound query by combining the
    per-literal clip indicators.
    """

    clauses: tuple[tuple[Query, ...], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.clauses:
            raise QueryError("a compound query needs at least one clause")
        for clause in self.clauses:
            if not clause:
                raise QueryError("empty disjunction clause")

    @classmethod
    def conjunction(cls, queries: Sequence[Query]) -> "CompoundQuery":
        return cls(tuple((q,) for q in queries))

    @classmethod
    def disjunction(cls, queries: Sequence[Query]) -> "CompoundQuery":
        return cls((tuple(queries),))

    @property
    def all_labels(self) -> tuple[str, ...]:
        seen: list[str] = []
        for clause in self.clauses:
            for literal in clause:
                for label in literal.all_labels:
                    if label not in seen:
                        seen.append(label)
        return tuple(seen)

    def _labels_by_kind(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Unique frame-level and action labels across all literals, in
        first appearance order; a label used as both kinds is rejected."""
        frame_labels: list[str] = []
        action_labels: list[str] = []
        for clause in self.clauses:
            for literal in clause:
                for mine, other, labels in (
                    (frame_labels, action_labels, literal.frame_level_labels),
                    (action_labels, frame_labels, literal.actions),
                ):
                    for label in labels:
                        if label in other:
                            raise QueryError(
                                f"label {label!r} used as both object and action"
                            )
                        if label not in mine:
                            mine.append(label)
        return tuple(frame_labels), tuple(action_labels)

    @property
    def frame_level_labels(self) -> tuple[str, ...]:
        """As :attr:`Query.frame_level_labels`, over every literal."""
        return self._labels_by_kind()[0]

    @property
    def actions(self) -> tuple[str, ...]:
        return self._labels_by_kind()[1]

    def validate_against(
        self,
        object_vocabulary: frozenset[str] | None,
        action_vocabulary: frozenset[str] | None,
    ) -> None:
        """Check every literal's labels against the deployed models."""
        for clause in self.clauses:
            for literal in clause:
                literal.validate_against(object_vocabulary, action_vocabulary)

    def describe(self) -> str:
        return " AND ".join(
            "(" + " OR ".join(lit.describe() for lit in clause) + ")"
            for clause in self.clauses
        )
