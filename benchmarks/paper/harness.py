"""Shared experiment infrastructure.

The experiment drivers of this package (one per paper table/figure)
build on these helpers: aggregate sequence-F1 over a query set, compare
algorithms, and render report tables with :mod:`paper.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext
from repro.core.engine import OnlineEngine
from repro.core.query import Query
from repro.core.results import OnlineResult
from repro.detectors.zoo import ModelZoo
from repro.eval.metrics import MatchReport, frame_overlap_report, match_sequences
from repro.utils.intervals import IntervalSet
from repro.video.model import VideoGeometry
from repro.video.synthesis import LabeledVideo


@dataclass(frozen=True)
class QueryRun:
    """One algorithm's outcome on one video, paired with ground truth."""

    video_id: str
    geometry: VideoGeometry
    result: OnlineResult
    truth: IntervalSet
    report: MatchReport


def ground_truth_clips(video: LabeledVideo, query: Query) -> IntervalSet:
    """Ground-truth result sequences of a query on one video (§5.1's
    annotation-intersection protocol)."""
    return video.truth.query_clips(
        query.objects, query.action, video.meta.geometry
    )


def run_query_over_videos(
    algorithm: str,
    zoo: ModelZoo,
    query: Query,
    videos: Iterable[LabeledVideo],
    config: OnlineConfig | None = None,
    *,
    context: ExecutionContext | None = None,
) -> list[QueryRun]:
    """Run one streaming algorithm over a collection of videos.

    Pass a shared ``context`` to accumulate execution counters across the
    whole set (the runtime-decomposition experiment does).
    """
    engine = OnlineEngine(zoo, config or OnlineConfig())
    runs: list[QueryRun] = []
    for video in videos:
        truth = ground_truth_clips(video, query)
        result = engine.run(query, video, algorithm, context=context)
        runs.append(
            QueryRun(
                video_id=video.video_id,
                geometry=video.meta.geometry,
                result=result,
                truth=truth,
                report=match_sequences(result.sequences, truth),
            )
        )
    return runs


def aggregate_report(runs: Sequence[QueryRun]) -> MatchReport:
    """Pool per-video match counts into one set-level report (the paper's
    per-query F1 aggregates across the set's videos)."""
    total = MatchReport(0, 0, 0)
    for run in runs:
        total = total + run.report
    return total


def aggregate_f1(runs: Sequence[QueryRun]) -> float:
    return aggregate_report(runs).f1


def aggregate_frame_f1(runs: Sequence[QueryRun]) -> float:
    """Pooled frame-level F1 across videos (Figure 5's metric)."""
    total = MatchReport(0, 0, 0)
    for run in runs:
        total = total + frame_overlap_report(
            run.result.sequences, run.truth, run.geometry
        )
    return total.f1


def compare_algorithms(
    zoo: ModelZoo,
    query: Query,
    videos: Sequence[LabeledVideo],
    config: OnlineConfig | None = None,
    algorithms: Sequence[str] = ("svaq", "svaqd"),
) -> dict[str, MatchReport]:
    """Both streaming algorithms on the same data; keyed by name."""
    return {
        name: aggregate_report(
            run_query_over_videos(name, zoo, query, videos, config)
        )
        for name in algorithms
    }
