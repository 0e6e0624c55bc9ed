"""Compound-query execution — disjunctions and multi-action conjunctions
over streams (footnotes 3–4).

A :class:`repro.core.query.CompoundQuery` is a CNF over conjunctive
literals.  Per clip, each *predicate label* gets one indicator (Eqs. 1–2,
computed once however many literals mention it); a literal holds when all
its labels' indicators do; a clause holds when any of its literals does;
the clip is positive when every clause holds — exactly the footnote-4
recipe of evaluating per-clause indicators and conjoining them.

Clauses are evaluated in order and the clip short-circuits on the first
false clause.  That recipe is the query's *clause program*
(:attr:`repro.core.indicators.BlockPlan.clauses`) — the same one a
conjunctive query compiles to, with single one-label literals — so
execution is the :class:`repro.core.session.StreamSession` pipeline SVAQ
and SVAQD use, on the same columnar feed: the block kernel under static
quotas, a row stepper under dynamic ones, probing, sequence assembly and
checkpointing included.  Compound runs are resumable and instrumented
like every other online run; only armed fault tolerance and a cache-free
config take the per-clip path, as they do for conjunctions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext
from repro.core.query import CompoundQuery
from repro.core.results import OnlineResult
from repro.core.session import StreamSession
from repro.detectors.zoo import ModelZoo
from repro.video.stream import ClipStream
from repro.video.synthesis import LabeledVideo

__all__ = ["CompoundOnline"]


@dataclass
class CompoundOnline:
    """Streaming executor for CNF queries (SVAQD dynamics by default)."""

    zoo: ModelZoo
    compound: CompoundQuery
    config: OnlineConfig = field(default_factory=OnlineConfig)
    #: False runs with static quotas from the configured ``p₀`` (the SVAQ
    #: analogue); True re-estimates backgrounds per clip (the SVAQD one).
    dynamic: bool = True

    def session(
        self,
        video: LabeledVideo,
        *,
        record_trace: bool = False,
        context: ExecutionContext | None = None,
    ) -> StreamSession:
        """An incremental (checkpointable) session for one stream."""
        return StreamSession.for_query(
            self.zoo,
            self.compound,
            video,
            self.config,
            dynamic=self.dynamic,
            record_trace=record_trace,
            context=context,
        )

    def run(
        self,
        video: LabeledVideo,
        *,
        stream: ClipStream | None = None,
        short_circuit: bool = True,
        record_trace: bool = False,
        context: ExecutionContext | None = None,
    ) -> OnlineResult:
        session = self.session(
            video, record_trace=record_trace, context=context
        )
        clips = stream if stream is not None else ClipStream(video.meta)
        session.advance(clips, short_circuit=short_circuit)
        return session.finish()
