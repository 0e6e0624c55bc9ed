"""The simulated models' eager synthesis — the differential oracle for the
demand-driven :mod:`repro.detectors.simulated`.

``synthesize`` is the body the models had while they drew every score of a
video at first touch: three indicator passes, then one Beta score per unit,
from one generator and in that order.  The models now stop after the
indicator and draw the scores from the generator's kept state when somebody
asks; every array they hand out must equal this one's bit for bit, whatever
was asked first.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.noise import alternating_indicator, conditional_scores
from repro.detectors.profiles import DetectorProfile
from repro.detectors.simulated import edge_mask, presence_mask
from repro.utils.intervals import IntervalSet
from repro.utils.rng import derive_rng
from repro.video.ground_truth import GroundTruth
from repro.video.model import VideoMeta


def synthesize(
    profile: DetectorProfile,
    seed: int,
    video_id: str,
    label: str,
    truth_spans: IntervalSet,
    n_units: int,
    outage_spans: IntervalSet | None = None,
) -> np.ndarray:
    accuracy = profile.accuracy_for(label)
    rng = derive_rng(seed, "model", profile.name, video_id, label)
    present = presence_mask(truth_spans, n_units)
    interior_tpr = accuracy.effective_interior_tpr
    if accuracy.tpr >= 1.0 and interior_tpr >= 1.0 and accuracy.fpr <= 0.0:
        firing = present.copy()
    else:
        edge = edge_mask(truth_spans, n_units, accuracy.edge_units)
        edge_hits = alternating_indicator(
            rng, n_units, accuracy.tpr, accuracy.burst_on
        )
        interior_hits = alternating_indicator(
            rng, n_units, interior_tpr, accuracy.burst_on
        )
        alarms = alternating_indicator(
            rng, n_units, accuracy.fpr, accuracy.burst_off
        )
        firing = np.where(
            present, np.where(edge, edge_hits, interior_hits), alarms
        )
    scores = conditional_scores(
        rng, firing, present, profile.threshold, profile.score_sharpness,
    )
    if outage_spans is not None and outage_spans:
        # Failure injection: during a recording outage no model can see
        # anything — scores collapse to zero regardless of ground truth.
        scores[presence_mask(outage_spans, n_units)] = 0.0
    return scores


def detector_scores(
    profile: DetectorProfile,
    seed: int,
    video: VideoMeta,
    truth: GroundTruth,
    label: str,
) -> np.ndarray:
    """What ``SimulatedObjectDetector.score_video`` returned."""
    return synthesize(
        profile,
        seed,
        video.video_id,
        label,
        truth.object_frames(label),
        video.usable_frames,
        outage_spans=truth.outage_frames,
    )


def recognizer_scores(
    profile: DetectorProfile,
    seed: int,
    video: VideoMeta,
    truth: GroundTruth,
    label: str,
) -> np.ndarray:
    """What ``SimulatedActionRecognizer.score_video`` returned."""
    shot_spans = truth.action_shots(label, video.geometry)
    outage_shots = (
        video.geometry.frame_set_to_shots(truth.outage_frames)
        if truth.outage_frames
        else None
    )
    return synthesize(
        profile,
        seed,
        # Shot indexing depends on the shot length, so the stream is tagged
        # with it.
        f"{video.video_id}@shot{video.geometry.frames_per_shot}",
        label,
        shot_spans,
        video.n_shots,
        outage_spans=outage_shots,
    )
