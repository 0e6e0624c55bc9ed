"""svq-act — querying for actions over videos.

A full reproduction of the SVQ-ACT system (Chao & Koudas): declarative
queries combining an *action* predicate with *object* predicates over
videos, answered

* **online** over streams with scan-statistics clip indicators
  (:class:`SVAQ`) and adaptive background probabilities (:class:`SVAQD`),
* **offline** over an ingested repository with ranked top-K retrieval
  (:class:`RVAQ` behind :class:`OfflineEngine`).

Quick start::

    from repro import Query, OnlineEngine
    from repro.video.datasets import build_youtube_set, youtube_set_by_id

    videos = build_youtube_set(youtube_set_by_id("q1"), seed=0, scale=0.1)
    engine = OnlineEngine()
    result = engine.run(Query(objects=["faucet"], action="washing dishes"),
                        videos.videos[0])
    print(result.sequences.as_tuples())

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-reproduction index.
"""

from repro.core import (
    RVAQ,
    SVAQ,
    SVAQD,
    CompoundOnline,
    CompoundQuery,
    DynamicQuotaPolicy,
    ExecutionContext,
    ExecutionStats,
    FleetRun,
    MaxScoring,
    MultiQueryRun,
    MultiQueryScheduler,
    OfflineEngine,
    OnlineConfig,
    OnlineEngine,
    OnlineResult,
    PaperScoring,
    Query,
    QuerySpec,
    QuotaPolicy,
    RankedSequence,
    RankingConfig,
    ScoringScheme,
    StaticQuotaPolicy,
    StreamSession,
    TopKResult,
)
from repro.detectors import CostMeter, ModelZoo, default_zoo, ideal_zoo
from repro.errors import ReproError
from repro.eval.metrics import frame_level_f1, match_sequences, sequence_f1
from repro.sql import parse, plan
from repro.storage import VideoRepository, ingest_video
from repro.utils.intervals import Interval, IntervalSet
from repro.video import (
    ClipStream,
    GroundTruth,
    LabeledVideo,
    SceneSpec,
    TrackSpec,
    VideoGeometry,
    VideoMeta,
    synthesize_video,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # query model + engines
    "Query",
    "CompoundQuery",
    "OnlineConfig",
    "RankingConfig",
    "OnlineEngine",
    "OfflineEngine",
    "MultiQueryScheduler",
    "MultiQueryRun",
    "QuerySpec",
    "FleetRun",
    "SVAQ",
    "SVAQD",
    "StreamSession",
    "ExecutionContext",
    "ExecutionStats",
    "QuotaPolicy",
    "StaticQuotaPolicy",
    "DynamicQuotaPolicy",
    "CompoundOnline",
    "RVAQ",
    "OnlineResult",
    "TopKResult",
    "RankedSequence",
    # scoring
    "ScoringScheme",
    "PaperScoring",
    "MaxScoring",
    # substrates
    "ModelZoo",
    "default_zoo",
    "ideal_zoo",
    "CostMeter",
    "VideoRepository",
    "ingest_video",
    "VideoGeometry",
    "VideoMeta",
    "GroundTruth",
    "LabeledVideo",
    "SceneSpec",
    "TrackSpec",
    "synthesize_video",
    "ClipStream",
    # sql
    "parse",
    "plan",
    # metrics + intervals
    "sequence_f1",
    "frame_level_f1",
    "match_sequences",
    "Interval",
    "IntervalSet",
    # errors
    "ReproError",
]
