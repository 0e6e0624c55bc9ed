"""Clip predicates — the second axis of the unified streaming session.

A :class:`repro.core.session.StreamSession` evaluates *some* per-clip
predicate against the current quotas; what that predicate is distinguishes
the canonical conjunctive query (Algorithm 2 via
:class:`ConjunctivePredicate`) from the footnote-3/4 CNF extension
(:class:`CnfPredicate`).  Each adapter knows how to

* evaluate one clip against a quota map (charging model invocations to the
  session's :class:`~repro.core.context.ExecutionContext`),
* expose its per-clip outcomes as a label → outcome mapping (for quota
  updates and probe statistics),
* serialise a pending evaluation for checkpoints, and
* build the run's final result object.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext, ExecutionStats
from repro.core.indicators import (
    ClipEvaluation,
    ClipEvaluator,
    PredicateOutcome,
    resolve_giveup,
)
from repro.core.optimizer import resolved_chunk_clips
from repro.core.query import CompoundQuery, Query
from repro.core.results import CompoundEvaluation, CompoundResult, OnlineResult
from repro.detectors.cache import DetectionScoreCache
from repro.detectors.retry import ensure_finite, invoke_with_retry
from repro.detectors.zoo import ModelZoo
from repro.errors import ModelGaveUpError, QueryError
from repro.utils.intervals import IntervalSet
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


class ConjunctivePredicate:
    """Algorithm 2 over a canonical conjunctive query."""

    supports_ordering = True
    #: Whole cache chunks can be read as columns: through the fleet's
    #: block kernel when the quotas are frozen, row by row off the cached
    #: counts when they move (the session checks its policy).
    supports_chunking = True

    def __init__(
        self,
        zoo: ModelZoo,
        query: Query,
        video: LabeledVideo,
        config: OnlineConfig,
        cache: DetectionScoreCache | None = None,
    ) -> None:
        self._query = query
        self._evaluator = ClipEvaluator(
            zoo, video.meta, video.truth, query, config, cache=cache
        )

    @property
    def query(self) -> Query:
        return self._query

    @property
    def cache(self) -> DetectionScoreCache | None:
        """The detection score cache in use (None = serial reference)."""
        return self._evaluator.cache

    @property
    def labels(self) -> tuple[str, ...]:
        """All predicate labels, in the user's evaluation order."""
        return (*self._query.frame_level_labels, *self._query.actions)

    @property
    def frame_labels(self) -> tuple[str, ...]:
        return self._query.frame_level_labels

    @property
    def action_labels(self) -> tuple[str, ...]:
        return self._query.actions

    def attach_context(self, context: ExecutionContext) -> None:
        self._evaluator.context = context

    def evaluate(
        self,
        clip_id: int,
        quotas: Mapping[str, int],
        *,
        short_circuit: bool,
        order: Sequence[str] | None = None,
    ) -> ClipEvaluation:
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

    def outcome_map(
        self, evaluation: ClipEvaluation
    ) -> Mapping[str, PredicateOutcome]:
        return {o.label: o for o in evaluation.outcomes}

    def held_state(self) -> StateDict:
        """Hold-last-estimate memory, for checkpoints."""
        return self._evaluator.held_state()

    def load_held_state(self, state: Mapping) -> None:
        self._evaluator.load_held_state(state)

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

    def build_result(
        self,
        video_id: str,
        sequences: IntervalSet,
        evaluations: Sequence[ClipEvaluation],
        final_rates: Mapping[str, float],
        k_crit_trace: tuple[Mapping[str, int], ...],
        stats: ExecutionStats | None,
        degraded_clips: tuple[int, ...] = (),
        selectivity: Mapping[str, float | None] | None = None,
    ) -> OnlineResult:
        return OnlineResult(
            query=self._query,
            video_id=video_id,
            sequences=sequences,
            evaluations=evaluations,
            k_crit_trace=k_crit_trace,
            final_rates=final_rates,
            stats=stats,
            degraded_clips=degraded_clips,
            selectivity=dict(selectivity) if selectivity else {},
        )


def cnf_label_kinds(compound: CompoundQuery) -> tuple[list[str], list[str]]:
    """Unique frame-level and action labels across all literals, in first
    appearance order; a label used as both kinds is rejected."""
    frame_labels: list[str] = []
    action_labels: list[str] = []
    for clause in compound.clauses:
        for literal in clause:
            for label in literal.frame_level_labels:
                if label in action_labels:
                    raise QueryError(
                        f"label {label!r} used as both object and action"
                    )
                if label not in frame_labels:
                    frame_labels.append(label)
            for label in literal.actions:
                if label in frame_labels:
                    raise QueryError(
                        f"label {label!r} used as both object and action"
                    )
                if label not in action_labels:
                    action_labels.append(label)
    return frame_labels, action_labels


class CnfPredicate:
    """Footnote-4 CNF evaluation: per-label indicators computed once,
    literals conjoin them, clauses disjoin literals, and the clip is
    positive when every clause holds.  Clause order is fixed by the query,
    so selectivity re-ordering does not apply."""

    supports_ordering = False
    #: Lazy literal evaluation makes which labels get touched clip-shape
    #: dependent; CNF stays on the per-clip path.
    supports_chunking = False

    def __init__(
        self,
        zoo: ModelZoo,
        compound: CompoundQuery,
        video: LabeledVideo,
        config: OnlineConfig,
        cache: DetectionScoreCache | None = None,
    ) -> None:
        self._zoo = zoo
        self._compound = compound
        self._meta = video.meta
        self._truth = video.truth
        self._config = config
        frame_labels, action_labels = cnf_label_kinds(compound)
        self._frame_labels = tuple(frame_labels)
        self._action_labels = tuple(action_labels)
        self._action_set = set(action_labels)
        self._context: ExecutionContext | None = None
        self._object_threshold = (
            config.object_threshold
            if config.object_threshold is not None
            else zoo.detector.threshold
        )
        self._action_threshold = (
            config.action_threshold
            if config.action_threshold is not None
            else zoo.recognizer.threshold
        )
        if cache is None and config.cache_detections:
            cache = DetectionScoreCache(
                zoo,
                video.meta,
                video.truth,
                object_threshold=self._object_threshold,
                action_threshold=self._action_threshold,
                chunk_clips=resolved_chunk_clips(
                    config, zoo, video.meta.geometry
                ),
            )
        elif cache is not None:
            cache.check_compatible(
                video.meta,
                object_threshold=self._object_threshold,
                action_threshold=self._action_threshold,
            )
        self._cache = cache
        # Fault tolerance (mirrors ClipEvaluator): disarmed = the exact
        # pre-fault-tolerance hot path.
        self._armed = config.fault_tolerant
        self._retry = config.retry_policy() if self._armed else None
        self._policy_for = dict(config.failure_policy_overrides)
        self._default_policy = config.failure_policy
        self._last_good: dict[str, PredicateOutcome] = {}

    @property
    def compound(self) -> CompoundQuery:
        return self._compound

    @property
    def cache(self) -> DetectionScoreCache | None:
        """The detection score cache in use (None = serial reference)."""
        return self._cache

    @property
    def labels(self) -> tuple[str, ...]:
        return (*self._frame_labels, *self._action_labels)

    @property
    def frame_labels(self) -> tuple[str, ...]:
        return self._frame_labels

    @property
    def action_labels(self) -> tuple[str, ...]:
        return self._action_labels

    def attach_context(self, context: ExecutionContext) -> None:
        self._context = context

    def _count(self, kind: str, label: str, clip_id: int) -> tuple[int, int]:
        """Positive predictions and occurrence units of one label on one
        clip, charged exactly as the conjunctive evaluator charges."""
        if self._cache is not None:
            count, units, fresh = self._cache.lookup(kind, label, clip_id)
            if self._context is not None:
                self._context.record_model_call(kind, cached=not fresh)
            return count, units
        if kind == "action":
            scores = self._zoo.recognizer.score_clip(
                self._meta, self._truth, label, clip_id
            )
            threshold = self._action_threshold
        else:
            scores = self._zoo.detector.score_clip(
                self._meta, self._truth, label, clip_id
            )
            threshold = self._object_threshold
        if self._armed:
            ensure_finite(scores, f"scores ({label!r}, clip {clip_id})")
        if self._context is not None:
            self._context.record_model_call(kind)
        return int(np.count_nonzero(scores >= threshold)), len(scores)

    def _robust_outcome(
        self, label: str, kind: str, clip_id: int, quota: int
    ) -> PredicateOutcome:
        """Retry-wrapped counting with degradation (mirrors
        :meth:`repro.core.indicators.ClipEvaluator.robust_outcome`)."""
        model = (
            self._zoo.recognizer.name if kind == "action"
            else self._zoo.detector.name
        )

        def on_retry(error: Exception, attempt: int) -> None:
            self._zoo.cost_meter.record_retry(model)
            if self._context is not None:
                self._context.record_retry(error)

        try:
            count, units = invoke_with_retry(
                lambda: self._count(kind, label, clip_id),
                self._retry,
                describe=f"{model} on {label!r} (clip {clip_id})",
                on_retry=on_retry,
            )
        except ModelGaveUpError as error:
            return resolve_giveup(
                label, kind, quota,
                self._policy_for.get(label, self._default_policy),
                self._last_good, error, self._context, self._zoo,
            )
        outcome = PredicateOutcome(
            label, kind, evaluated=True,
            count=count, units=units, indicator=count >= quota,
        )
        self._last_good[label] = outcome
        return outcome

    def evaluate(
        self,
        clip_id: int,
        quotas: Mapping[str, int],
        *,
        short_circuit: bool,
        order: Sequence[str] | None = None,
    ) -> CompoundEvaluation:
        outcomes: dict[str, PredicateOutcome] = {}

        def indicator(label: str) -> bool:
            memo = outcomes.get(label)
            if memo is not None:
                return memo.indicator
            kind = "action" if label in self._action_set else "object"
            if self._armed:
                outcome = self._robust_outcome(
                    label, kind, clip_id, quotas[label]
                )
            else:
                count, units = self._count(kind, label, clip_id)
                outcome = PredicateOutcome(
                    label, kind, evaluated=True,
                    count=count, units=units,
                    indicator=count >= quotas[label],
                )
            outcomes[label] = outcome
            return outcome.indicator

        clause_values: list[bool | None] = []
        positive = True
        for clause in self._compound.clauses:
            if not positive and short_circuit:
                clause_values.append(None)
                continue
            clause_true = False
            for literal in clause:
                if all(indicator(label) for label in literal.all_labels):
                    clause_true = True
                    break
            clause_values.append(clause_true)
            if not clause_true:
                positive = False
        if not short_circuit:
            # evaluate any label untouched by lazy literal evaluation
            for clause in self._compound.clauses:
                for literal in clause:
                    for label in literal.all_labels:
                        indicator(label)
        return CompoundEvaluation(
            clip_id=clip_id,
            positive=positive,
            outcomes=outcomes,
            clause_values=tuple(clause_values),
        )

    def outcome_map(
        self, evaluation: CompoundEvaluation
    ) -> Mapping[str, PredicateOutcome]:
        return evaluation.outcomes

    def held_state(self) -> StateDict:
        """Hold-last-estimate memory, for checkpoints."""
        return {
            label: [o.count, o.units]
            for label, o in self._last_good.items()
        }

    def load_held_state(self, state: Mapping) -> None:
        self._last_good = {
            label: PredicateOutcome(
                label,
                "action" if label in self._action_set else "object",
                evaluated=True, count=int(count), units=int(units),
            )
            for label, (count, units) in state.items()
        }

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
        )

    # -- result construction -----------------------------------------------------

    def build_result(
        self,
        video_id: str,
        sequences: IntervalSet,
        evaluations: tuple[CompoundEvaluation, ...],
        final_rates: Mapping[str, float],
        k_crit_trace: tuple[Mapping[str, int], ...],
        stats: ExecutionStats | None,
        degraded_clips: tuple[int, ...] = (),
        selectivity: Mapping[str, float | None] | None = None,
    ) -> CompoundResult:
        return CompoundResult(
            compound=self._compound,
            video_id=video_id,
            sequences=sequences,
            evaluations=evaluations,
            final_rates=dict(final_rates),
            k_crit_trace=k_crit_trace,
            stats=stats,
            degraded_clips=degraded_clips,
            selectivity=dict(selectivity) if selectivity else {},
        )
