"""Simulated object tracker (the CenterTrack stand-in).

The offline ranking function ``h`` (Eq. 7) aggregates *per-track-instance*
scores ``S_o^t(v)``: a clip where two cars are visible for all 50 frames
should outscore a clip with one car for 10 frames.  The simulated tracker
assigns a stable track id to every ground-truth object instance episode,
fires per frame with the tracker profile's TPR (plus occasional spurious
short tracks at the FPR), and occasionally *switches ids* mid-episode the
way real trackers lose and re-acquire targets.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import GroundTruth, TrackColumns, TrackedDetection
from repro.detectors.cost import CostMeter
from repro.detectors.noise import alternating_indicator, conditional_scores
from repro.detectors.profiles import DetectorProfile
from repro.detectors.simulated import presence_mask
from repro.errors import DetectorError
from repro.utils.rng import derive_rng
from repro.video.model import ClipView, VideoMeta


class SimulatedTracker:
    """Implements :class:`repro.detectors.base.ObjectTracker`.

    Track ids are deterministic functions of ``(video, label, instance,
    episode)`` so repeated queries see identical tracks — as they would from
    a frozen tracking model re-run over the same file.
    """

    def __init__(
        self,
        profile: DetectorProfile,
        seed: int = 0,
        vocabulary: frozenset[str] | None = None,
        cost_meter: CostMeter | None = None,
        id_switch_rate: float = 0.05,
    ) -> None:
        if profile.kind != "tracker":
            raise DetectorError(
                f"profile {profile.name!r} is a {profile.kind} profile, "
                "not a tracker profile"
            )
        if not 0.0 <= id_switch_rate <= 1.0:
            raise DetectorError("id_switch_rate must be in [0, 1]")
        self._profile = profile
        self._seed = seed
        self._vocabulary = vocabulary
        self._cost = cost_meter
        self._id_switch_rate = id_switch_rate
        # (video_id, label) -> every observation, as frame-sorted columns
        self._cache: dict[tuple[str, str], TrackColumns] = {}

    @property
    def name(self) -> str:
        return self._profile.name

    @property
    def profile(self) -> DetectorProfile:
        return self._profile

    def supports(self, label: str) -> bool:
        return self._vocabulary is None or label in self._vocabulary

    def tracks_in_video(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> TrackColumns:
        """All tracked observations of ``label`` over the video's usable
        frames, ordered by frame then track id.  Like the sibling models'
        ``score_video`` this charges nothing: the caller charges one
        inference per frame it consumes."""
        if not self.supports(label):
            raise DetectorError(
                f"label {label!r} outside the vocabulary of {self.name}"
            )
        key = (video.video_id, label)
        columns = self._cache.get(key)
        if columns is None:
            columns = self._cache[key] = self._synthesize(video, truth, label)
        return columns

    def tracks_in_clip(
        self, video: VideoMeta, truth: GroundTruth, label: str, clip: ClipView
    ) -> list[TrackedDetection]:
        """The clip's slice of :meth:`tracks_in_video`; charges one
        inference per clip frame."""
        frames, track_ids, scores = self.tracks_in_video(video, truth, label)
        span = clip.frames
        if self._cost is not None:
            self._cost.record(self.name, len(span), self._profile.ms_per_unit)
        lo, hi = np.searchsorted(frames, (span.start, span.end + 1))
        return [
            TrackedDetection(
                label=label, frame=frame, track_id=track_id, score=score
            )
            for frame, track_id, score in zip(
                frames[lo:hi].tolist(),
                track_ids[lo:hi].tolist(),
                scores[lo:hi].tolist(),
            )
        ]

    # -- synthesis ------------------------------------------------------------

    def _synthesize(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> TrackColumns:
        accuracy = self._profile.accuracy_for(label)
        rng = derive_rng(self._seed, "tracker", self.name, video.video_id, label)
        n = video.usable_frames
        # One piece per episode (plus the spurious runs); the leading empty
        # pieces keep ``concatenate`` defined for a label nothing fires on.
        frames = [np.zeros(0, dtype=np.int64)]
        track_ids = [np.zeros(0, dtype=np.int64)]
        scores = [np.zeros(0, dtype=np.float64)]
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
                episode_scores = conditional_scores(
                    rng,
                    firing,
                    np.ones(length, dtype=bool),
                    self._profile.threshold,
                    self._profile.score_sharpness,
                )
                offsets = np.flatnonzero(firing)
                ids = np.full(len(offsets), next_track_id, dtype=np.int64)
                next_track_id += 1
                if length > 2 and rng.random() < self._id_switch_rate:
                    # The tracker loses the target and re-acquires it
                    # under a fresh id from ``switch_at`` on.
                    switch_at = int(rng.integers(1, length))
                    ids[offsets >= switch_at] = next_track_id
                    next_track_id += 1
                frames.append(offsets + start)
                track_ids.append(ids)
                scores.append(episode_scores[offsets])

        # Spurious short tracks at the false-positive rate, outside truth:
        # one fresh id per run of consecutive alarm frames.
        if accuracy.fpr > 0.0:
            alarms = alternating_indicator(rng, n, accuracy.fpr, accuracy.burst_off)
            run_starts = alarms.copy()
            run_starts[1:] &= ~alarms[:-1]
            at = np.flatnonzero(alarms)
            frames.append(at)
            track_ids.append(next_track_id - 1 + np.cumsum(run_starts)[at])
            # The alarm frames alone: a whole-video draw scores them first,
            # the background after, and nothing draws from ``rng`` later.
            alarm = np.ones(len(at), dtype=bool)
            scores.append(
                conditional_scores(
                    rng, alarm, ~alarm,
                    self._profile.threshold, self._profile.score_sharpness,
                )
            )

        all_frames = np.concatenate(frames)
        # Ids were handed out in synthesis order, so a stable sort by frame
        # leaves each frame's observations in track-id order.
        order = np.argsort(all_frames, kind="stable")
        if truth.outage_frames:
            # Failure injection: nothing is trackable during a recording
            # outage.
            dark = presence_mask(truth.outage_frames, n)
            order = order[~dark[all_frames[order]]]
        return TrackColumns(
            all_frames[order],
            np.concatenate(track_ids)[order],
            np.concatenate(scores)[order],
        )

    def cache_clear(self) -> None:
        self._cache.clear()
