"""Clip predicates — the second axis of the unified streaming session.

A :class:`repro.core.session.StreamSession` evaluates *some* per-clip
predicate against the current quotas.  Both query shapes — the canonical
conjunctive query (:class:`ConjunctivePredicate`) and the footnote-3/4 CNF
extension (:class:`CnfPredicate`) — are one clause program evaluated by one
:class:`~repro.core.indicators.ClipEvaluator`; the adapters differ in the
row and result types they speak.  Each knows how to

* hand the session its clause program (the block path) or evaluate one
  clip against a quota map (the per-clip path, charging model invocations
  to the session's :class:`~repro.core.context.ExecutionContext`),
* expose its per-clip outcomes as a label → outcome mapping (for quota
  updates and probe statistics),
* serialise a pending evaluation for checkpoints, and
* build the run's final result object.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext
from repro.core.indicators import (
    BlockPlan,
    ClipEvaluation,
    ClipEvaluator,
    CompoundEvaluation,
    PredicateOutcome,
)
from repro.core.query import CompoundQuery, Query
from repro.core.results import CompoundResult, OnlineResult
from repro.detectors.cache import DetectionScoreCache
from repro.detectors.zoo import ModelZoo
from repro.video.synthesis import LabeledVideo
from repro._typing import StateDict


def _outcome_to_dict(outcome: PredicateOutcome) -> StateDict:
    state = {
        "label": outcome.label,
        "kind": outcome.kind,
        "evaluated": outcome.evaluated,
        "count": outcome.count,
        "units": outcome.units,
        "indicator": outcome.indicator,
    }
    if outcome.degraded:
        state["degraded"] = True
    return state


def _outcome_from_dict(state: StateDict) -> PredicateOutcome:
    return PredicateOutcome(
        label=state["label"],
        kind=state["kind"],
        evaluated=state["evaluated"],
        count=state["count"],
        units=state["units"],
        indicator=state["indicator"],
        degraded=state.get("degraded", False),
    )


class _Predicate:
    """What both query shapes share: one :class:`ClipEvaluator` over the
    query's clause program — counting, retries, degradation, held state
    and the detection cache all live there."""

    #: Whole cache chunks can be read as columns: through the fleet's
    #: block kernel when the quotas are frozen, row by row off the cached
    #: counts when they move (the session checks its policy).
    supports_chunking = True

    def __init__(
        self,
        zoo: ModelZoo,
        query: Query | CompoundQuery,
        video: LabeledVideo,
        config: OnlineConfig,
        cache: DetectionScoreCache | None = None,
    ) -> None:
        self._query = query
        self._evaluator = ClipEvaluator(
            zoo, video.meta, video.truth, query, config, cache=cache
        )

    @property
    def cache(self) -> DetectionScoreCache | None:
        """The detection score cache in use (None = serial reference)."""
        return self._evaluator.cache

    @property
    def labels(self) -> tuple[str, ...]:
        """All predicate labels, in the user's evaluation order."""
        return self._evaluator.plan().labels

    @property
    def frame_labels(self) -> tuple[str, ...]:
        return self._query.frame_level_labels

    @property
    def action_labels(self) -> tuple[str, ...]:
        return self._query.actions

    def attach_context(self, context: ExecutionContext) -> None:
        self._evaluator.context = context

    def plan(self, order: Sequence[str] | None = None) -> BlockPlan:
        """The clause program the block path evaluates."""
        return self._evaluator.plan(order)

    def evaluate(
        self,
        clip_id: int,
        quotas: Mapping[str, int],
        *,
        short_circuit: bool,
        order: Sequence[str] | None = None,
    ) -> ClipEvaluation | CompoundEvaluation:
        return self._evaluator.evaluate(
            clip_id, quotas, short_circuit=short_circuit, order=order
        )

    @property
    def chunk_clips(self) -> int:
        """The resolved chunk grain (= the adaptive-order epoch length)."""
        return self._evaluator.chunk_clips

    def unit_cost_ms(self, label: str) -> float:
        """Expected fresh model cost of one clip evaluation of ``label``."""
        return self._evaluator.unit_cost_ms(label)

    def held_state(self) -> StateDict:
        """Hold-last-estimate memory, for checkpoints."""
        return self._evaluator.held_state()

    def load_held_state(self, state: Mapping) -> None:
        self._evaluator.load_held_state(state)


class ConjunctivePredicate(_Predicate):
    """Algorithm 2 over a canonical conjunctive query."""

    supports_ordering = True

    @property
    def query(self) -> Query:
        return self._query

    def outcome_map(
        self, evaluation: ClipEvaluation
    ) -> Mapping[str, PredicateOutcome]:
        return {o.label: o for o in evaluation.outcomes}

    # -- checkpoint serialisation ----------------------------------------------

    def evaluation_to_dict(self, evaluation: ClipEvaluation) -> StateDict:
        return {
            "clip_id": evaluation.clip_id,
            "positive": evaluation.positive,
            "outcomes": [_outcome_to_dict(o) for o in evaluation.outcomes],
        }

    def evaluation_from_dict(self, state: StateDict) -> ClipEvaluation:
        return ClipEvaluation(
            clip_id=state["clip_id"],
            positive=state["positive"],
            outcomes=tuple(_outcome_from_dict(o) for o in state["outcomes"]),
        )

    # -- result construction -----------------------------------------------------

    def build_result(self, **fields: Any) -> OnlineResult:
        """The run's result; ``fields`` are those both shapes share."""
        return OnlineResult(query=self._query, **fields)


class CnfPredicate(_Predicate):
    """Footnote-4 CNF evaluation: per-label indicators computed once,
    literals conjoin them, clauses disjoin literals, and the clip is
    positive when every clause holds — the query's clauses are its clause
    program as they stand, so it rides the block path like a conjunction.
    Clause order is fixed by the query: selectivity re-ordering does not
    apply."""

    supports_ordering = False

    @property
    def compound(self) -> CompoundQuery:
        return self._query

    def outcome_map(
        self, evaluation: CompoundEvaluation
    ) -> Mapping[str, PredicateOutcome]:
        return evaluation.outcomes

    # -- checkpoint serialisation ----------------------------------------------

    def evaluation_to_dict(self, evaluation: CompoundEvaluation) -> StateDict:
        return {
            "clip_id": evaluation.clip_id,
            "positive": evaluation.positive,
            "outcomes": {
                label: _outcome_to_dict(o)
                for label, o in evaluation.outcomes.items()
            },
            "clause_values": list(evaluation.clause_values),
        }

    def evaluation_from_dict(self, state: StateDict) -> CompoundEvaluation:
        plan = self.plan()
        return CompoundEvaluation(
            clip_id=state["clip_id"],
            positive=state["positive"],
            outcomes={
                label: _outcome_from_dict(o)
                for label, o in state["outcomes"].items()
            },
            clause_values=tuple(
                None if v is None else bool(v)
                for v in state["clause_values"]
            ),
            kinds=dict(zip(plan.labels, plan.kinds)),
        )

    # -- result construction -----------------------------------------------------

    def build_result(self, **fields: Any) -> CompoundResult:
        return CompoundResult(compound=self._query, **fields)
