"""The ingestion phase (§4.2).

Executed once per video when it enters the repository; queries are unknown
at this point, so metadata is extracted for *every* label the deployed
models support:

* **Clip score tables** — per label, the per-clip aggregate score under the
  scoring function ``h`` (Eq. 7 for objects via the tracker, Eq. 8 for
  actions via the recogniser), materialised score-ordered
  (:class:`repro.storage.table.ClipScoreTable`).
* **Individual sequences** — per label, the positive-clip runs ``P_o`` /
  ``P_a`` determined with SVAQD (Eqs. 1–2 under dynamically estimated
  background probabilities), stored as clip-id interval sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Literal, Mapping, Sequence

import numpy as np

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.core.scoring import PaperScoring, ScoringScheme
from repro.core.session import StreamSession
from repro.detectors.retry import ensure_finite, invoke_with_retry
from repro.detectors.zoo import ModelZoo
from repro.errors import (
    IngestBatchError,
    IngestError,
    ModelExecutionError,
    ModelGaveUpError,
)
from repro.storage.table import ClipScoreTable
from repro.utils.executors import Executor, map_ordered
from repro.utils.intervals import IntervalSet
from repro.utils.validation import require_distinct_ids
from repro.video.stream import ClipStream
from repro.video.synthesis import LabeledVideo


@dataclass(frozen=True)
class VideoIngest:
    """All query-independent metadata extracted from one video."""

    video_id: str
    n_clips: int
    object_tables: Mapping[str, ClipScoreTable]
    action_tables: Mapping[str, ClipScoreTable]
    object_sequences: Mapping[str, IntervalSet]
    action_sequences: Mapping[str, IntervalSet]
    ingest_cost_ms: float = 0.0

    def table_for(self, label: str) -> ClipScoreTable:
        table = self.object_tables.get(label)
        if table is None:
            table = self.action_tables.get(label)
        if table is None:
            raise IngestError(
                f"label {label!r} was not ingested for video {self.video_id!r}"
            )
        return table

    def sequences_for(self, label: str) -> IntervalSet:
        spans = self.object_sequences.get(label)
        if spans is None:
            spans = self.action_sequences.get(label)
        if spans is None:
            raise IngestError(
                f"label {label!r} was not ingested for video {self.video_id!r}"
            )
        return spans

    @property
    def labels(self) -> tuple[str, ...]:
        return (*self.object_tables.keys(), *self.action_tables.keys())


def ingest_video(
    video: LabeledVideo,
    zoo: ModelZoo,
    object_labels: Sequence[str],
    action_labels: Sequence[str],
    scoring: ScoringScheme | None = None,
    config: OnlineConfig | None = None,
) -> VideoIngest:
    """Run the ingestion phase over one video (§4.2).

    ``object_labels`` / ``action_labels`` enumerate the deployed models'
    vocabularies (the paper ingests "all possible object and action
    types").  The returned :class:`VideoIngest` is immutable; re-ingesting
    with a different scoring scheme or config produces a fresh one.
    """
    scoring = scoring or PaperScoring()
    config = config or OnlineConfig()
    if len(set(object_labels)) != len(object_labels):
        raise IngestError("duplicate object labels for ingestion")
    if len(set(action_labels)) != len(action_labels):
        raise IngestError("duplicate action labels for ingestion")
    meta = video.meta
    cost_before = zoo.cost_meter.ms()
    retry = config.retry_policy() if config.fault_tolerant else None

    def _invoke(
        call: Callable[[], Any],
        model_name: str,
        describe: str,
        validate: Callable[[Any], Any] | None = None,
    ) -> Any:
        """Model-invocation boundary: plain call when fault tolerance is
        off (bit-identical to the pre-retry code path), retried per
        ``config`` otherwise, with retries/give-ups charged to the meter."""
        if retry is None:
            return call()

        def _on_retry(error: ModelExecutionError, attempt: int) -> None:
            zoo.cost_meter.record_retry(model_name)

        try:
            return invoke_with_retry(
                call, retry, validate=validate, describe=describe,
                on_retry=_on_retry,
            )
        except ModelGaveUpError:
            zoo.cost_meter.record_giveup(model_name)
            raise

    clip_ids = np.arange(meta.n_clips)
    object_tables: dict[str, ClipScoreTable] = {}
    object_sequences: dict[str, IntervalSet] = {}
    for label in object_labels:
        tracked = _invoke(
            lambda lbl=label: zoo.tracker.tracks_in_video(
                meta, video.truth, lbl
            ),
            zoo.tracker.name,
            f"tracker on {video.video_id}/{label}",
            validate=lambda columns, lbl=label: ensure_finite(
                columns.scores, f"tracker scores for {lbl!r}"
            ),
        )
        # Ingestion tracks through every frame once; charge the tracker.
        zoo.cost_meter.record(
            zoo.tracker.name, meta.usable_frames, zoo.tracker.profile.ms_per_unit
        )
        object_tables[label] = ClipScoreTable.from_columns(
            label,
            clip_ids,
            scoring.object_clip_scores(
                tracked.frames // meta.geometry.frames_per_clip,
                tracked.scores,
                meta.n_clips,
            ),
        )
        object_sequences[label] = _label_sequences(
            video, zoo, Query(objects=[label]), config
        )

    action_tables: dict[str, ClipScoreTable] = {}
    action_sequences: dict[str, IntervalSet] = {}
    shots_per_clip = meta.geometry.shots_per_clip
    for label in action_labels:
        shot_scores = _invoke(
            lambda lbl=label: zoo.recognizer.score_video(
                meta, video.truth, lbl
            ),
            zoo.recognizer.name,
            f"recogniser on {video.video_id}/{label}",
            validate=lambda scores, lbl=label: ensure_finite(
                scores, f"recogniser scores for {lbl!r}"
            ),
        )
        usable = meta.n_clips * shots_per_clip
        per_clip = np.asarray(shot_scores[:usable]).reshape(
            meta.n_clips, shots_per_clip
        )
        # Ingestion scans every shot once; charge the recogniser.
        zoo.cost_meter.record(
            zoo.recognizer.name, usable, zoo.recognizer.profile.ms_per_unit
        )
        action_tables[label] = ClipScoreTable.from_columns(
            label, clip_ids, scoring.action_clip_scores(per_clip)
        )
        action_sequences[label] = _label_sequences(
            video, zoo, Query(actions=[label]), config
        )

    return VideoIngest(
        video_id=video.video_id,
        n_clips=meta.n_clips,
        object_tables=object_tables,
        action_tables=action_tables,
        object_sequences=object_sequences,
        action_sequences=action_sequences,
        ingest_cost_ms=zoo.cost_meter.ms() - cost_before,
    )


def _label_sequences(
    video: LabeledVideo, zoo: ModelZoo, query: Query, config: OnlineConfig
) -> IntervalSet:
    """Individual sequences for one label: SVAQD over the whole video."""
    session = StreamSession.for_query(zoo, query, video, config)
    session.advance(ClipStream(video.meta))
    return session.finish().sequences


IngestErrorPolicy = Literal["raise", "capture"]


@dataclass
class IngestOutcome:
    """Per-video result of an :func:`ingest_many` batch.

    Exactly one of ``ingest`` / ``error`` is set.  The original video
    rides along so :func:`retry_failed` can re-run failures without the
    caller re-threading inputs to outcomes.
    """

    video: LabeledVideo
    ingest: VideoIngest | None = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def video_id(self) -> str:
        return self.video.video_id


def _settle(
    outcomes: list[IngestOutcome], on_error: IngestErrorPolicy
) -> list[VideoIngest] | list[IngestOutcome]:
    """Turn a fully accounted outcome list into the caller-facing result."""
    if on_error == "capture":
        return outcomes
    failures = [o for o in outcomes if not o.ok]
    if failures:
        detail = "; ".join(
            f"{o.video_id}: {o.error}" for o in failures[:3]
        )
        if len(failures) > 3:
            detail += "; ..."
        raise IngestBatchError(
            f"{len(failures)} of {len(outcomes)} videos failed ingestion "
            f"({detail})",
            outcomes=outcomes,
        )
    return [o.ingest for o in outcomes]


def ingest_many(
    videos: Iterable[LabeledVideo],
    zoo: ModelZoo,
    object_labels: Sequence[str],
    action_labels: Sequence[str],
    scoring: ScoringScheme | None = None,
    config: OnlineConfig | None = None,
    *,
    executor: Executor = "serial",
    max_workers: int | None = None,
    on_error: IngestErrorPolicy = "raise",
) -> list[VideoIngest] | list[IngestOutcome]:
    """Run the ingestion phase over many videos, optionally in parallel.

    Ingestion is embarrassingly parallel across videos — each video's
    metadata depends only on that video and the (deterministic) models —
    so it goes through :func:`repro.utils.executors.map_ordered`, as
    :meth:`repro.core.engine.OnlineEngine.run_many` does:

    * ``"serial"`` — one video after another on the shared zoo;
    * ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`
      over per-worker zoo forks; with the simulated models it runs at
      serial speed (what is left of an ingest is the pure-Python SVAQD
      sweeps, which hold the GIL) and pays only when model calls block
      on something outside the interpreter.

    Both yield identical :class:`VideoIngest` results in the input order
    (the models are deterministic), and the threads fold their forks'
    inference charges back into ``zoo.cost_meter``, so per-video
    ``ingest_cost_ms`` and the shared meter totals match the serial run
    exactly.  A batch that names one video id twice is refused with an
    :class:`~repro.errors.IngestError` before any model runs.

    Failure handling: one video's failure never discards the rest of the
    batch.  Every worker's cost charges — including a failed worker's
    partial charges — are merged back into the shared meter first; then
    ``on_error="raise"`` (the default) raises
    :class:`~repro.errors.IngestBatchError` carrying the full per-video
    :class:`IngestOutcome` list (successes included, so completed ingests
    are salvageable), while ``on_error="capture"`` returns that outcome
    list instead of raising.  With no failures, ``"raise"`` returns the
    plain :class:`VideoIngest` list exactly as before.
    """
    videos = list(videos)
    if on_error not in ("raise", "capture"):
        raise IngestError(f"unknown on_error policy {on_error!r}")
    if executor not in ("serial", "thread"):
        raise IngestError(f"unknown ingest executor {executor!r}")
    require_distinct_ids([video.video_id for video in videos], IngestError)
    rest = (object_labels, action_labels, scoring, config)
    # Serial runs on the shared zoo; threads each on a fork, merged after.
    forks = [zoo.fork() for _ in videos] if executor == "thread" else []
    zoos = forks or [zoo for _ in videos]
    results = map_ordered(
        ingest_video, [(video, z, *rest) for video, z in zip(videos, zoos)],
        executor, max_workers,
    )
    for fork in forks:
        zoo.cost_meter.merge(fork.cost_meter)
    outcomes = [
        IngestOutcome(video=video, error=result)
        if isinstance(result, Exception)
        else IngestOutcome(video=video, ingest=result)
        for video, result in zip(videos, results)
    ]
    return _settle(outcomes, on_error)


def retry_failed(
    outcomes: Sequence[IngestOutcome],
    zoo: ModelZoo,
    object_labels: Sequence[str],
    action_labels: Sequence[str],
    scoring: ScoringScheme | None = None,
    config: OnlineConfig | None = None,
    *,
    executor: Executor = "serial",
    max_workers: int | None = None,
) -> list[IngestOutcome]:
    """Re-ingest only the failed videos of a captured outcome list.

    Returns a full outcome list in the original order with each failure
    replaced by its fresh outcome (which may itself be a failure again);
    successes are passed through untouched, so repeated rounds converge
    on transient faults without re-paying for completed work.
    """
    failed = [o for o in outcomes if not o.ok]
    if not failed:
        return list(outcomes)
    redone = ingest_many(
        [o.video for o in failed],
        zoo,
        object_labels,
        action_labels,
        scoring,
        config,
        executor=executor,
        max_workers=max_workers,
        on_error="capture",
    )
    by_id = {o.video_id: o for o in redone}
    return [by_id.get(o.video_id, o) for o in outcomes]
