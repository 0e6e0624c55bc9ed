"""Table 5 — false-positive rates of the raw detectors with and without
SVAQD's clip-level aggregation.

"Without SVAQD" is the per-occurrence-unit false firing rate of the raw
thresholded model outputs (frames for objects, shots for the action)
against ground truth.  "With SVAQD" is the false firing rate of the
*clip-level predicate indicators* SVAQD actually acts on, measured over
the clips whose ground truth does not contain the predicate.

Paper shape target: SVAQD cuts the false positive rate by roughly 50–80%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.core.results import OnlineResult
from repro.core.session import StreamSession
from repro.detectors.retry import RetryPolicy, invoke_with_retry
from repro.detectors.simulated import presence_mask
from repro.detectors.zoo import default_zoo
from repro.video.datasets import build_youtube_set, youtube_set_by_id
from repro.video.stream import ClipStream
from repro.video.synthesis import LabeledVideo

from paper.tables import render_table

#: The noise tables read raw model scores once per video; the default
#: do-not-retry policy keeps behaviour identical while staying inside
#: the charge-discipline boundary (RL001).
_NO_RETRY = RetryPolicy()

QUERIES: tuple[tuple[str, Query], ...] = (
    ("q2", Query(objects=["car"], action="blowing leaves")),
    ("q1", Query(objects=["faucet"], action="washing dishes")),
)


@dataclass(frozen=True)
class NoiseRow:
    query: str
    action_fpr_raw: float
    action_fpr_svaqd: float
    object_fpr_raw: float
    object_fpr_svaqd: float

    @property
    def action_reduction(self) -> float:
        if self.action_fpr_raw == 0:
            return 0.0
        return 1.0 - self.action_fpr_svaqd / self.action_fpr_raw

    @property
    def object_reduction(self) -> float:
        if self.object_fpr_raw == 0:
            return 0.0
        return 1.0 - self.object_fpr_svaqd / self.object_fpr_raw


@dataclass(frozen=True)
class Table5Result:
    rows: tuple[NoiseRow, ...]

    def render(self) -> str:
        return render_table(
            ["query", "act FPR w/o", "act FPR w/", "obj FPR w/o", "obj FPR w/"],
            [
                (
                    r.query,
                    r.action_fpr_raw,
                    r.action_fpr_svaqd,
                    r.object_fpr_raw,
                    r.object_fpr_svaqd,
                )
                for r in self.rows
            ],
            title="Table 5 — detector FPR without vs with SVAQD",
            precision=3,
        )


def _raw_fpr(scores: np.ndarray, present: np.ndarray, threshold: float) -> tuple[int, int]:
    firing = scores >= threshold
    negatives = ~present
    return int(np.count_nonzero(firing & negatives)), int(np.count_nonzero(negatives))


def _clip_fpr_counts(
    video: LabeledVideo,
    query: Query,
    result: OnlineResult,
    label: str,
    kind: str,
    warmup_clips: int = 25,
) -> tuple[int, int]:
    """Clip-level false firings of one predicate indicator.

    A clip counts as a *negative* only when the label is completely absent
    from it — boundary clips with partial presence are neither negatives
    nor positives here, so the clip-level rate is comparable to the raw
    per-unit rate (both measure firing where the label truly is not).

    The first ``warmup_clips`` of each stream are excluded: SVAQD's
    background estimators start from the configured prior and need a few
    hundred occurrence units to lock onto the stream (§3.3); Table 5
    measures the steady-state noise elimination, like the paper's
    long-video streams do.
    """
    geometry = video.meta.geometry
    if kind == "action":
        spans = video.truth.action_frames(label)
    else:
        spans = video.truth.object_frames(label)
    # any-overlap projection: the loosest min_cover marks every clip that
    # contains at least one present frame
    touched = geometry.frame_set_to_clips(
        spans, min_cover=1.0 / geometry.frames_per_clip
    )
    false_fires = 0
    negatives = 0
    for ev in result.evaluations:
        if ev.clip_id < warmup_clips:
            continue
        outcome = ev.outcome(label)
        if not outcome.evaluated:
            continue
        if ev.clip_id in touched:
            continue
        negatives += 1
        false_fires += int(outcome.indicator)
    return false_fires, negatives


def run(seed: int = 0, scale: float = 0.15) -> Table5Result:
    zoo = default_zoo(seed=seed)
    config = OnlineConfig()
    rows = []
    for qid, query in QUERIES:
        videos = build_youtube_set(youtube_set_by_id(qid), seed, scale).videos
        raw_act = [0, 0]
        raw_obj = [0, 0]
        clip_act = [0, 0]
        clip_obj = [0, 0]
        for video in videos:
            meta, truth = video.meta, video.truth
            action, obj = query.action, query.objects[0]
            act_scores = invoke_with_retry(
                lambda: zoo.recognizer.score_video(meta, truth, action),
                _NO_RETRY,
                describe=f"recogniser on {video.video_id}/{action}",
            )
            act_present = presence_mask(
                truth.action_shots(action, meta.geometry), meta.n_shots
            )
            fires, negs = _raw_fpr(
                act_scores[: meta.n_shots], act_present, zoo.recognizer.threshold
            )
            raw_act[0] += fires
            raw_act[1] += negs
            obj_scores = invoke_with_retry(
                lambda: zoo.detector.score_video(meta, truth, obj),
                _NO_RETRY,
                describe=f"detector on {video.video_id}/{obj}",
            )
            obj_present = presence_mask(truth.object_frames(obj), meta.usable_frames)
            fires, negs = _raw_fpr(
                obj_scores, obj_present, zoo.detector.threshold
            )
            raw_obj[0] += fires
            raw_obj[1] += negs

            session = StreamSession.for_query(zoo, query, video, config)
            session.advance(ClipStream(video.meta), short_circuit=False)
            result = session.finish()
            fires, negs = _clip_fpr_counts(video, query, result, action, "action")
            clip_act[0] += fires
            clip_act[1] += negs
            fires, negs = _clip_fpr_counts(video, query, result, obj, "object")
            clip_obj[0] += fires
            clip_obj[1] += negs
        rows.append(
            NoiseRow(
                query=f"{qid}: a={query.action}; o1={query.objects[0]}",
                action_fpr_raw=raw_act[0] / max(1, raw_act[1]),
                action_fpr_svaqd=clip_act[0] / max(1, clip_act[1]),
                object_fpr_raw=raw_obj[0] / max(1, raw_obj[1]),
                object_fpr_svaqd=clip_obj[0] / max(1, clip_obj[1]),
            )
        )
    return Table5Result(rows=tuple(rows))


def check(result: Table5Result) -> None:
    """The shape targets DESIGN.md names for this experiment."""
    for row in result.rows:
        assert row.action_fpr_svaqd <= row.action_fpr_raw
        assert row.object_fpr_svaqd <= row.object_fpr_raw
    reductions = [r.action_reduction for r in result.rows]
    reductions += [r.object_reduction for r in result.rows]
    # the paper reports 50-80% noise elimination
    assert sum(reductions) / len(reductions) >= 0.5
