"""High-level engine facades.

:class:`OnlineEngine` answers streaming queries (SVAQ / SVAQD) over one or
many labelled videos; :class:`OfflineEngine` owns a repository, runs the
ingestion phase, and answers top-K queries with RVAQ or the baselines.
These are the objects the SQL layer's planner drives and the examples use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Literal, Sequence, TypeVar

from repro.core.baselines import fagin_baseline, pq_traverse, rvaq_noskip
from repro.core.config import OnlineConfig, RankingConfig
from repro.core.context import ExecutionContext
from repro.core.query import CompoundQuery, Query
from repro.core.distributed import (
    DEFAULT_ROUND_BUDGET,
    DistributedExecutor,
    DistributedTopKResult,
    require_labels,
    sharded_top_k,
)
from repro.core.results import OnlineResult
from repro.core.rvaq import RVAQ, TopKResult
from repro.core.scheduler import FleetRun, MultiQueryRun, as_specs
from repro.core.scoring import PaperScoring, ScoringScheme
from repro.core.session import StreamSession
from repro.detectors.zoo import ModelZoo, default_zoo
from repro.errors import ConfigurationError, QueryError, StorageError
from repro.storage.ingest import (
    IngestErrorPolicy,
    IngestExecutor,
    IngestOutcome,
    ingest_many,
    ingest_video,
)
from repro.storage.repository import VideoRepository
from repro.storage.sharded import ShardedRepository
from repro.utils.executors import map_ordered
from repro.video.stream import ClipStream
from repro.video.synthesis import LabeledVideo

OnlineAlgorithm = Literal["svaq", "svaqd"]
OfflineAlgorithm = Literal["rvaq", "rvaq-noskip", "fa", "pq-traverse"]
Executor = Literal["serial", "thread"]


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
        (``"svaqd"``, Algorithm 3); any other name is refused.  ``context``
        threads shared execution counters through the run; omit it and the
        result's ``stats`` carries a private snapshot.
        """
        if algorithm not in ("svaq", "svaqd"):
            raise ConfigurationError(f"unknown online algorithm {algorithm!r}")
        session = StreamSession.for_query(
            self.zoo, query, video, self.config,
            dynamic=algorithm == "svaqd", context=context,
        )
        session.advance(ClipStream(video.meta))
        return session.finish()

    run_compound = run  # the CNF spelling benchmarks/svqbench still calls

    def run_many(
        self,
        query: Query | CompoundQuery,
        videos: Iterable[LabeledVideo],
        algorithm: OnlineAlgorithm = "svaqd",
        *,
        executor: Executor = "serial",
        max_workers: int | None = None,
        context: ExecutionContext | None = None,
    ) -> dict[str, OnlineResult]:
        """Process a collection of streams (e.g. one Table-1 query set).

        ``executor="thread"`` fans the per-video runs out over a
        :class:`~concurrent.futures.ThreadPoolExecutor`.  Results are
        identical to the serial path (the simulated models are
        deterministic per video) and returned in the videos' insertion
        order either way.
        """
        return _per_video(
            lambda video, local: self.run(query, video, algorithm, context=local),
            videos, executor, max_workers, context,
        )

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

    def run_queries_many(
        self,
        queries: Iterable,
        videos: Iterable[LabeledVideo],
        algorithm: OnlineAlgorithm = "svaqd",
        *,
        executor: Executor = "serial",
        max_workers: int | None = None,
        short_circuit: bool = True,
        context: ExecutionContext | None = None,
    ) -> dict[str, MultiQueryRun]:
        """:meth:`run_queries` fanned across a video collection.

        Each video gets its own shared detection cache and lockstep pass;
        ``executor="thread"`` runs the per-video passes concurrently with
        private contexts merged afterwards (insertion order), exactly as
        :meth:`run_many` does.  Returns ``{video_id: MultiQueryRun}`` in
        input order.
        """
        specs = as_specs(queries, algorithm=algorithm)
        return _per_video(
            lambda video, local: self.run_queries(
                specs, video, short_circuit=short_circuit, context=local
            ),
            videos, executor, max_workers, context,
        )


R = TypeVar("R")


def _per_video(
    run: Callable[[LabeledVideo, ExecutionContext | None], R],
    videos: Iterable[LabeledVideo],
    executor: Executor,
    max_workers: int | None,
    context: ExecutionContext | None,
) -> dict[str, R]:
    """``run(video, context)`` per video, ``{video_id: result}`` in input
    order.  Under ``"thread"`` each video gets a private context; merging
    them afterwards (in insertion order) keeps shared counters exact
    without per-increment locking across the pool."""
    if executor not in ("serial", "thread"):
        raise ConfigurationError(f"unknown executor {executor!r}")
    videos = list(videos)
    locals_ = [ExecutionContext() for _ in videos] if executor == "thread" else []
    contexts = locals_ or [context for _ in videos]
    results = map_ordered(run, zip(videos, contexts), executor, max_workers)
    by_video: dict[str, R] = {}
    for video, result in zip(videos, results):
        if isinstance(result, Exception):
            raise result
        by_video[video.video_id] = result
    if context is not None:
        for local in locals_:
            context.merge(local)
    return by_video


@dataclass
class OfflineEngine:
    """Repository ownership + top-K query execution (§4).

    ``repository`` may be a single :class:`VideoRepository` or a
    :class:`~repro.storage.sharded.ShardedRepository`; ingestion routes
    through either transparently, and :meth:`top_k` over a sharded
    repository runs the scatter-gather distributed RVAQ
    (:func:`repro.core.distributed.sharded_top_k`) with results identical
    to the single-repository engine.
    """

    zoo: ModelZoo = field(default_factory=default_zoo)
    scoring: ScoringScheme = field(default_factory=PaperScoring)
    config: RankingConfig = field(default_factory=RankingConfig)
    repository: VideoRepository | ShardedRepository = field(
        default_factory=VideoRepository
    )
    _videos: dict[str, LabeledVideo] = field(default_factory=dict, repr=False)

    def ingest(
        self,
        video: LabeledVideo,
        object_labels: Sequence[str],
        action_labels: Sequence[str],
    ) -> None:
        """Run the one-time ingestion phase for a video (§4.2)."""
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
        executor: IngestExecutor = "serial",
        max_workers: int | None = None,
        on_error: IngestErrorPolicy = "raise",
    ) -> list[IngestOutcome] | None:
        """Ingest a collection of videos, optionally in parallel.

        ``executor`` is ``"serial"``, ``"thread"`` or ``"process"`` (see
        :func:`repro.storage.ingest.ingest_many`); results and cost
        accounting are identical across executors, and videos enter the
        repository in input order regardless of completion order.

        Under ``on_error="capture"`` the per-video outcome list is
        returned; the successful videos are in the repository and the
        failures are reported instead of raised, so a flaky batch can be
        resumed with :func:`repro.storage.ingest.retry_failed`.  The
        default ``"raise"`` keeps the all-or-nothing surface
        (:class:`~repro.errors.IngestBatchError` still carries the
        salvageable outcomes).
        """
        videos = list(videos)
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

    def remove(self, video_id: str) -> None:
        self.repository.remove(video_id)
        self._videos.pop(video_id, None)

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
        *,
        executor: DistributedExecutor = "serial",
        round_budget: int = DEFAULT_ROUND_BUDGET,
    ) -> TopKResult | DistributedTopKResult:
        """Answer a top-K query with RVAQ or one of the §5.1 baselines.

        Over a :class:`~repro.storage.sharded.ShardedRepository` the RVAQ
        algorithm runs scatter-gather across the shards (``executor``
        picks in-process or worker-process shards); the baselines are
        single-repository algorithms and refuse a sharded store.
        """
        if k is None:
            k = self.config.default_k
        if k <= 0:
            raise QueryError(f"k must be positive; got {k}")
        if isinstance(self.repository, ShardedRepository):
            if algorithm != "rvaq":
                raise ConfigurationError(
                    f"algorithm {algorithm!r} does not run sharded; use "
                    "'rvaq', or merge the shards with "
                    "ShardedRepository.merged() first"
                )
            return sharded_top_k(
                self.repository,
                query,
                k,
                self.scoring,
                self.config,
                executor=executor,
                round_budget=round_budget,
            )
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

    def localized(
        self, result: TopKResult | DistributedTopKResult
    ) -> list[tuple[str, int, int, float]]:
        """Render a result as ``(video_id, start_clip, end_clip, score)``
        rows in rank order — the human-facing answer format."""
        if isinstance(result, DistributedTopKResult):
            return list(result.rows)  # the gather step localised already
        if isinstance(self.repository, ShardedRepository):
            raise ConfigurationError(
                "single-repository results cannot be localised against a "
                "sharded repository"
            )
        rows = []
        for ranked in result.ranked:
            video_id, start = self.repository.to_local(ranked.interval.start)
            _, end = self.repository.to_local(ranked.interval.end)
            rows.append((video_id, start, end, ranked.score))
        return rows
