"""Result objects of the online pipeline.

Both streaming result shapes live here — :class:`OnlineResult` for
conjunctive queries (SVAQ / SVAQD) and :class:`CompoundResult` for CNF
queries — so that the session layer can construct them without importing
the algorithm drivers.  ``repro.core.svaq`` and ``repro.core.compound``
re-export them under their historical names, and
:class:`~repro.core.indicators.CompoundEvaluation` (built by the
evaluators) is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.context import ExecutionStats
from repro.core.indicators import (
    ClipEvaluation,
    CompoundEvaluation,
    EvaluationLog,
)
from repro.core.query import CompoundQuery, Query
from repro.utils.intervals import Interval, IntervalSet


def degraded_sequence_spans(
    sequences: IntervalSet, degraded_clips: tuple[int, ...]
) -> tuple[Interval, ...]:
    """The result sequences touching at least one degraded clip.

    These sequences were decided with one or more predicates resolved by
    a degradation policy instead of a model answer, so the scan-statistic
    precision guarantee does not fully cover them — callers wanting the
    strict guarantee filter them out.
    """
    if not degraded_clips:
        return ()
    clips = sorted(set(degraded_clips))
    return tuple(
        span
        for span in sequences
        if any(span.start <= clip <= span.end for clip in clips)
    )


class _StreamResult:
    """What both result shapes read off their evaluations."""

    evaluations: EvaluationLog
    sequences: IntervalSet
    degraded_clips: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.evaluations, EvaluationLog):
            object.__setattr__(
                self, "evaluations", EvaluationLog(self.evaluations)
            )

    @property
    def n_clips(self) -> int:
        return len(self.evaluations)

    @property
    def positive_clips(self) -> int:
        return self.evaluations.positive_clips()

    @property
    def degraded_sequences(self) -> tuple[Interval, ...]:
        """Result sequences touching a degraded clip (weakened guarantee)."""
        return degraded_sequence_spans(self.sequences, self.degraded_clips)

    def predicate_indicator_rate(self, label: str) -> float:
        """Fraction of evaluated clips on which a predicate's indicator
        fired — its empirical clip-level selectivity."""
        return self.evaluations.indicator_rate(label)


@dataclass(frozen=True)
class OnlineResult(_StreamResult):
    """Output of one streaming run: the result sequences ``P_q`` plus the
    per-clip evaluations (used by the noise/selectivity analyses)."""

    query: Query
    video_id: str
    sequences: IntervalSet
    #: A session hands over its :class:`EvaluationLog` (rows materialise
    #: on access); any other sequence of evaluations is wrapped in one.
    evaluations: Sequence[ClipEvaluation]
    k_crit_trace: tuple[Mapping[str, int], ...] = ()
    #: SVAQD only: the background-probability estimates when the stream
    #: ended (diagnostics for the adaptivity experiments).
    final_rates: Mapping[str, float] = ()
    #: Per-stage execution counters of the run (model invocations,
    #: short-circuit savings, probe clips, stage wall time).
    stats: ExecutionStats | None = None
    #: Clips on which at least one predicate was resolved by a degradation
    #: policy (empty unless fault tolerance was armed and models gave up).
    degraded_clips: tuple[int, ...] = ()
    #: Probe-based per-label firing-rate estimates at stream end (``None``
    #: = never probed).  Strict-JSON safe — no NaN sentinels.
    selectivity: Mapping[str, float | None] = field(default_factory=dict)


@dataclass(frozen=True)
class CompoundResult(_StreamResult):
    """Streaming result for a compound query."""

    compound: CompoundQuery
    video_id: str
    sequences: IntervalSet
    #: As :attr:`OnlineResult.evaluations`, of :class:`CompoundEvaluation`.
    evaluations: Sequence[CompoundEvaluation]
    final_rates: Mapping[str, float] = field(default_factory=dict)
    k_crit_trace: tuple[Mapping[str, int], ...] = ()
    #: Per-stage execution counters of the run.
    stats: ExecutionStats | None = None
    #: Clips on which at least one predicate was resolved by a degradation
    #: policy (empty unless fault tolerance was armed and models gave up).
    degraded_clips: tuple[int, ...] = ()
    #: Probe-based per-label firing-rate estimates at stream end (``None``
    #: = never probed).  Strict-JSON safe — no NaN sentinels.
    selectivity: Mapping[str, float | None] = field(default_factory=dict)
