"""The result object of the online pipeline.

:class:`OnlineResult` is what every streaming run returns — SVAQ, SVAQD
and the CNF executor alike — kept here so that the session layer can
construct it without importing the algorithm drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.context import ExecutionStats
from repro.core.indicators import ClipEvaluation, EvaluationLog
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


@dataclass(frozen=True)
class OnlineResult:
    """Output of one streaming run: the result sequences ``P_q`` plus the
    per-clip evaluations (used by the noise/selectivity analyses)."""

    query: Query | CompoundQuery
    video_id: str
    sequences: IntervalSet
    #: A session hands over its :class:`EvaluationLog` (rows materialise
    #: on access); any other sequence of evaluations is wrapped in one.
    evaluations: Sequence[ClipEvaluation]
    k_crit_trace: tuple[Mapping[str, int], ...] = ()
    #: Dynamic quotas only: the background-probability estimates when the
    #: stream ended (diagnostics for the adaptivity experiments).
    final_rates: Mapping[str, float] = field(default_factory=dict)
    #: Per-stage execution counters of the run (model invocations,
    #: short-circuit savings, probe clips, stage wall time).
    stats: ExecutionStats | None = None
    #: Clips on which at least one predicate was resolved by a degradation
    #: policy (empty unless fault tolerance was armed and models gave up).
    degraded_clips: tuple[int, ...] = ()
    #: Probe-based per-label firing-rate estimates at stream end (``None``
    #: = never probed).  Strict-JSON safe — no NaN sentinels.
    selectivity: Mapping[str, float | None] = field(default_factory=dict)

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
