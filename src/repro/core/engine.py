"""High-level engine facades.

:class:`OnlineEngine` answers streaming queries (SVAQ / SVAQD) over a
labelled video; :class:`OfflineEngine` owns a repository, runs the
ingestion phase, and answers top-K queries with RVAQ or the baselines.
These are the objects the SQL layer's planner drives and the examples use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

from repro.core.baselines import fagin_baseline, pq_traverse, rvaq_noskip
from repro.core.config import OnlineConfig, RankingConfig
from repro.core.context import ExecutionContext
from repro.core.query import CompoundQuery, Query
from repro.core.distributed import require_labels
from repro.core.results import OnlineResult
from repro.core.rvaq import RVAQ, TopKResult
from repro.core.scheduler import FleetRun, MultiQueryRun, as_specs
from repro.core.scoring import PaperScoring, ScoringScheme
from repro.core.session import StreamSession
from repro.detectors.zoo import ModelZoo, default_zoo
from repro.errors import ConfigurationError, IngestError, StorageError
from repro.storage.ingest import (
    IngestErrorPolicy,
    IngestOutcome,
    ingest_many,
    ingest_video,
)
from repro.storage.repository import VideoRepository
from repro.utils.executors import Executor
from repro.utils.validation import require_k
from repro.video.stream import ClipStream
from repro.video.synthesis import LabeledVideo

OnlineAlgorithm = Literal["svaq", "svaqd"]
OfflineAlgorithm = Literal["rvaq", "rvaq-noskip", "fa", "pq-traverse"]


@dataclass
class OnlineEngine:
    """Streaming query execution over labelled videos."""

    zoo: ModelZoo = field(default_factory=default_zoo)
    config: OnlineConfig = field(default_factory=OnlineConfig)

    def run(
        self,
        query: Query | CompoundQuery,
        video: LabeledVideo,
        algorithm: str = "svaqd",
        *,
        context: ExecutionContext | None = None,
    ) -> OnlineResult:
        """Process one video stream and return its result sequences.

        ``query`` is conjunctive or CNF (OR / multi-action forms, footnotes
        3–4); one :class:`~repro.core.session.StreamSession` runs either,
        with static quotas (``"svaq"``, Algorithm 1) or dynamic ones
        (``"svaqd"``, Algorithm 3); any other name is refused.  The result's
        ``stats`` are this run's own; a shared ``context`` receives them
        once the run finishes, as :meth:`run_queries` does.
        """
        if algorithm not in ("svaq", "svaqd"):
            raise ConfigurationError(f"unknown online algorithm {algorithm!r}")
        session = StreamSession.for_query(
            self.zoo, query, video, self.config, dynamic=algorithm == "svaqd"
        )
        session.advance(ClipStream(video.meta))
        result = session.finish()
        if context is not None:
            context.merge(session.context)
        return result

    run_compound = run  # the CNF spelling benchmarks/svqbench still calls

    def run_queries(
        self,
        queries: Iterable,
        video: LabeledVideo,
        algorithm: OnlineAlgorithm = "svaqd",
        *,
        short_circuit: bool = True,
        context: ExecutionContext | None = None,
    ) -> MultiQueryRun:
        """Run many standing queries over one stream, sharing detections.

        ``queries`` is a list of :class:`~repro.core.query.Query` /
        :class:`~repro.core.query.CompoundQuery` objects (auto-named
        ``q0, q1, ...`` and run with ``algorithm``) or explicit
        :class:`~repro.core.scheduler.QuerySpec` entries mixing per-query
        algorithms.  One :class:`~repro.core.scheduler.FleetRun` advances
        all sessions in lockstep over one
        :class:`~repro.detectors.cache.DetectionScoreCache`, so each
        frame/shot is scored at most once for the whole fleet; results
        are identical to running each query alone.
        """
        fleet = self.start_queries(as_specs(queries, algorithm=algorithm), video)
        fleet.advance(ClipStream(video.meta), short_circuit=short_circuit)
        return fleet.finish(context=context)

    def start_queries(
        self,
        queries: Iterable,
        video: LabeledVideo,
        algorithm: OnlineAlgorithm = "svaqd",
        *,
        start_clip: int = 0,
    ) -> FleetRun:
        """An incremental fleet run over one stream — the service's path.

        Unlike :meth:`run_queries`, the returned
        :class:`~repro.core.scheduler.FleetRun` is driven by the caller:
        feed clips through :meth:`~repro.core.scheduler.FleetRun.advance`,
        register/cancel queries between steps, checkpoint mid-stream with
        :meth:`~repro.core.scheduler.FleetRun.state_dict`.  ``queries``
        may be empty — the service registers them live.
        """
        queries = list(queries)
        specs = as_specs(queries, algorithm=algorithm) if queries else []
        return FleetRun(
            self.zoo, video, self.config, specs, start_clip=start_clip
        )


@dataclass
class OfflineEngine:
    """Repository ownership + top-K query execution (§4)."""

    zoo: ModelZoo = field(default_factory=default_zoo)
    scoring: ScoringScheme = field(default_factory=PaperScoring)
    config: RankingConfig = field(default_factory=RankingConfig)
    repository: VideoRepository = field(default_factory=VideoRepository)
    _videos: dict[str, LabeledVideo] = field(default_factory=dict, repr=False)

    def ingest(
        self,
        video: LabeledVideo,
        object_labels: Sequence[str],
        action_labels: Sequence[str],
    ) -> None:
        """Run the one-time ingestion phase for a video (§4.2)."""
        self._refuse_ingested([video])
        ingest = ingest_video(
            video,
            self.zoo,
            object_labels=object_labels,
            action_labels=action_labels,
            scoring=self.scoring,
            config=self.config.online,
        )
        self.repository.add(ingest)
        self._videos[video.video_id] = video

    def ingest_many(
        self,
        videos: Iterable[LabeledVideo],
        object_labels: Sequence[str],
        action_labels: Sequence[str],
        *,
        executor: Executor = "serial",
        max_workers: int | None = None,
        on_error: IngestErrorPolicy = "raise",
    ) -> list[IngestOutcome] | None:
        """Ingest a collection of videos, optionally in parallel.

        ``executor`` is ``"serial"`` or ``"thread"`` (see
        :func:`repro.storage.ingest.ingest_many`); results and cost
        accounting are identical across executors, and videos enter the
        repository in input order regardless of completion order.  A batch
        naming one id twice, or a video already here, is refused with an
        :class:`~repro.errors.IngestError` before any model runs.

        Under ``on_error="capture"`` the per-video outcome list is
        returned; the successful videos are in the repository and the
        failures are reported instead of raised, so a flaky batch can be
        resumed by ingesting its failed videos again.  The
        default ``"raise"`` keeps the all-or-nothing surface
        (:class:`~repro.errors.IngestBatchError`).
        """
        videos = list(videos)
        self._refuse_ingested(videos)
        result = ingest_many(
            videos,
            self.zoo,
            object_labels=object_labels,
            action_labels=action_labels,
            scoring=self.scoring,
            config=self.config.online,
            executor=executor,
            max_workers=max_workers,
            on_error=on_error,
        )
        if on_error == "capture":
            for outcome in result:
                if outcome.ok:
                    self.repository.add(outcome.ingest)
                    self._videos[outcome.video_id] = outcome.video
            return result
        for video, ingest in zip(videos, result):
            self.repository.add(ingest)
            self._videos[video.video_id] = video
        return None

    def _refuse_ingested(self, videos: Sequence[LabeledVideo]) -> None:
        """Refuse videos already in the repository before a model runs."""
        known = sorted({v.video_id for v in videos} & set(self.repository.video_ids))
        if known:
            raise IngestError(f"videos already ingested: {known}")

    def video(self, video_id: str) -> LabeledVideo:
        try:
            return self._videos[video_id]
        except KeyError:
            raise StorageError(f"video {video_id!r} not ingested here") from None

    def top_k(
        self,
        query: Query,
        k: int | None = None,
        algorithm: OfflineAlgorithm = "rvaq",
    ) -> TopKResult:
        """Answer a top-K query with RVAQ or one of the §5.1 baselines."""
        k = require_k(self.config.default_k if k is None else k)
        require_labels(map(self.repository.ingest_of, self.repository.video_ids), query)
        if algorithm == "rvaq":
            return RVAQ(self.repository, self.scoring, self.config).top_k(query, k)
        if algorithm == "rvaq-noskip":
            return rvaq_noskip(self.repository, query, k, self.scoring, self.config)
        if algorithm == "fa":
            return fagin_baseline(self.repository, query, k, self.scoring)
        if algorithm == "pq-traverse":
            return pq_traverse(self.repository, query, k, self.scoring)
        raise ConfigurationError(f"unknown offline algorithm {algorithm!r}")

    def localized(self, result: TopKResult) -> list[tuple[str, int, int, float]]:
        """Render a result as ``(video_id, start_clip, end_clip, score)``
        rows in rank order — the human-facing answer format."""
        rows = []
        for ranked in result.ranked:
            video_id, start = self.repository.to_local(ranked.interval.start)
            _, end = self.repository.to_local(ranked.interval.end)
            rows.append((video_id, start, end, ranked.score))
        return rows
