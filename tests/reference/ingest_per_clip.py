"""The ingestion phase asked clip by clip — the differential oracle for
:func:`repro.storage.ingest.ingest_video`.

This is the loop ``ingest_video`` ran before the tracker answered per
video: per clip, the clip's slice of the tracker's observations (charging
the clip's frames) and one scalar ``object_clip_score``, one scalar
``action_clip_score`` per clip row, tables built from ``(clip_id, score)``
tuples.  ``scoring`` is a scheme with the scalar ``h``
(``tests/reference/scoring.py``).  It keeps no retry boundary — it is
only ever compared on fault-free zoos.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.core.scoring import ScoringScheme
from repro.detectors.zoo import ModelZoo
from repro.storage.ingest import VideoIngest, _label_sequences
from repro.storage.table import ClipScoreTable
from repro.video.synthesis import LabeledVideo
from tests.reference.scoring import ScalarPaperScoring


def ingest_video_per_clip(
    video: LabeledVideo,
    zoo: ModelZoo,
    object_labels: Sequence[str],
    action_labels: Sequence[str],
    scoring: ScoringScheme | None = None,
    config: OnlineConfig | None = None,
) -> VideoIngest:
    scoring = scoring or ScalarPaperScoring()
    config = config or OnlineConfig()
    meta = video.meta
    cost_before = zoo.cost_meter.ms()

    object_tables = {}
    object_sequences = {}
    for label in object_labels:
        rows = []
        frames, _, scores = zoo.tracker.tracks_in_video(meta, video.truth, label)
        for clip_id in range(meta.n_clips):
            span = meta.geometry.frames_of_clip(clip_id)
            zoo.cost_meter.record(
                zoo.tracker.name, len(span), zoo.tracker.profile.ms_per_unit
            )
            lo, hi = np.searchsorted(frames, (span.start, span.end + 1))
            rows.append((clip_id, scoring.object_clip_score(scores[lo:hi].tolist())))
        object_tables[label] = ClipScoreTable(label, rows)
        object_sequences[label] = _label_sequences(
            video, zoo, Query(objects=[label]), config
        )

    action_tables = {}
    action_sequences = {}
    shots_per_clip = meta.geometry.shots_per_clip
    for label in action_labels:
        shot_scores = zoo.recognizer.score_video(meta, video.truth, label)
        usable = meta.n_clips * shots_per_clip
        per_clip = np.asarray(shot_scores[:usable]).reshape(
            meta.n_clips, shots_per_clip
        )
        rows = [
            (clip_id, scoring.action_clip_score(per_clip[clip_id]))
            for clip_id in range(meta.n_clips)
        ]
        zoo.cost_meter.record(
            zoo.recognizer.name, usable, zoo.recognizer.profile.ms_per_unit
        )
        action_tables[label] = ClipScoreTable(label, rows)
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
