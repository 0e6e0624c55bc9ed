"""The tracker's synthesis frame by frame — the differential oracle for
:meth:`repro.detectors.tracker.SimulatedTracker.tracks_in_video`.

One Python step per episode frame and per video frame, appending
``(track_id, score)`` to a per-frame list: the shape the tracker had before
it synthesised columns.  The random draws, and their order, are the
contract the columnar synthesis must keep.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.noise import alternating_indicator, conditional_scores
from repro.detectors.profiles import DetectorProfile
from repro.utils.rng import derive_rng
from repro.video.ground_truth import GroundTruth
from repro.video.model import VideoMeta


def observations_per_frame(
    profile: DetectorProfile,
    seed: int,
    id_switch_rate: float,
    video: VideoMeta,
    truth: GroundTruth,
    label: str,
) -> list[tuple[int, int, float]]:
    """Every ``(frame, track_id, score)``, by frame then insertion order."""
    accuracy = profile.accuracy_for(label)
    rng = derive_rng(seed, "tracker", profile.name, video.video_id, label)
    n = video.usable_frames
    by_frame: dict[int, list[tuple[int, float]]] = {}
    next_track_id = 1

    for instance_spans in truth.object_instances(label):
        for episode in instance_spans:
            start = max(0, episode.start)
            end = min(n - 1, episode.end)
            if end < start:
                continue
            length = end - start + 1
            if accuracy.tpr >= 1.0:
                firing = np.ones(length, dtype=bool)
            else:
                firing = alternating_indicator(
                    rng, length, accuracy.tpr, accuracy.burst_on
                )
            scores = conditional_scores(
                rng, firing, np.ones(length, dtype=bool),
                profile.threshold, profile.score_sharpness,
            )
            track_id = next_track_id
            next_track_id += 1
            switch_at = -1
            if length > 2 and rng.random() < id_switch_rate:
                switch_at = int(rng.integers(1, length))
            for offset in range(length):
                if offset == switch_at:
                    track_id = next_track_id
                    next_track_id += 1
                if firing[offset]:
                    by_frame.setdefault(start + offset, []).append(
                        (track_id, float(scores[offset]))
                    )

    if accuracy.fpr > 0.0:
        alarms = alternating_indicator(rng, n, accuracy.fpr, accuracy.burst_off)
        scores = conditional_scores(
            rng, alarms, np.zeros(n, dtype=bool),
            profile.threshold, profile.score_sharpness,
        )
        in_alarm = False
        for frame in range(n):
            if alarms[frame]:
                if not in_alarm:
                    track_id = next_track_id
                    next_track_id += 1
                    in_alarm = True
                by_frame.setdefault(frame, []).append(
                    (track_id, float(scores[frame]))
                )
            else:
                in_alarm = False

    return [
        (frame, track_id, score)
        for frame in sorted(by_frame)
        if frame not in truth.outage_frames
        for track_id, score in by_frame[frame]
    ]
