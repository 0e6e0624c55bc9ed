"""Simulated object detectors and action recognisers.

Each model is a deterministic function of ``(profile, seed, video, label)``,
drawn on demand and memoised.  First touch draws the per-frame (or per-shot)
*firing indicator* — all the online algorithms read — and keeps the
generator's state; the score vector is drawn from that state when somebody
asks for scores, and is the same whatever was asked first.  So online
streaming, repeated experiments and the ingestion phase all observe *the
same* noisy model outputs — exactly as they would with a real frozen network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detectors.base import GroundTruth
from repro.detectors.cost import CostMeter
from repro.detectors.noise import alternating_indicator, conditional_scores
from repro.detectors.profiles import DetectorProfile
from repro.errors import DetectorError
from repro.utils.intervals import IntervalSet
from repro.utils.rng import derive_rng
from repro.video.model import VideoMeta


def presence_mask(spans: IntervalSet, n: int) -> np.ndarray:
    """Boolean per-unit mask of an interval set over ``[0, n)``."""
    mask = np.zeros(n, dtype=bool)
    for iv in spans:
        mask[max(0, iv.start) : min(n, iv.end + 1)] = True
    return mask


def edge_mask(spans: IntervalSet, n: int, edge_units: int) -> np.ndarray:
    """Units inside an episode but within ``edge_units`` of its boundary —
    the zone where detectors run at their (lower) edge TPR."""
    mask = np.zeros(n, dtype=bool)
    if edge_units <= 0:
        return mask
    for iv in spans:
        lo, hi = max(0, iv.start), min(n - 1, iv.end)
        if hi < lo:
            continue
        mask[lo : min(n, lo + edge_units)] = True
        mask[max(0, hi - edge_units + 1) : hi + 1] = True
    return mask


@dataclass
class _Synthesis:
    """What first touch draws and keeps of one ``(video, label)``."""

    firing: np.ndarray  #: what the model reports: ``scores >= threshold``
    drawn: np.ndarray  #: the indicator as drawn; the scores condition on it
    present: np.ndarray
    #: Failure injection: during a recording outage no model can see
    #: anything — nothing fires, scores are zero regardless of ground truth.
    dark: np.ndarray | None
    #: The stream after the indicator draws — a state, not a live generator,
    #: so whoever draws the scores, whenever, draws the same doubles.
    rng_state: dict[str, object]
    scores: np.ndarray | None = None


class _SimulatedModel:
    """Shared machinery: vocabulary checks, caching, noisy score synthesis."""

    _kind: str  #: the kind of profile a subclass deploys

    def __init__(
        self,
        profile: DetectorProfile,
        seed: int = 0,
        vocabulary: frozenset[str] | None = None,
        cost_meter: CostMeter | None = None,
    ) -> None:
        if profile.kind != self._kind:
            raise DetectorError(
                f"profile {profile.name!r} is a {profile.kind} profile, "
                f"not an {self._kind} profile"
            )
        self._profile = profile
        self._seed = seed
        self._vocabulary = vocabulary
        self._cost = cost_meter
        self._cache: dict[tuple[VideoMeta, str], _Synthesis] = {}

    @property
    def name(self) -> str:
        return self._profile.name

    @property
    def profile(self) -> DetectorProfile:
        return self._profile

    @property
    def threshold(self) -> float:
        return self._profile.threshold

    @property
    def declared_vocabulary(self) -> frozenset[str] | None:
        """The configured vocabulary, or ``None`` for an open vocabulary."""
        return self._vocabulary

    def supports(self, label: str) -> bool:
        return self._vocabulary is None or label in self._vocabulary

    def _check_label(self, label: str) -> None:
        if not self.supports(label):
            raise DetectorError(
                f"label {label!r} outside the vocabulary of {self.name}"
            )

    def _charge(self, units: int) -> None:
        if self._cost is not None:
            self._cost.record(self.name, units, self._profile.ms_per_unit)

    def _project(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> tuple[str, IntervalSet, int, IntervalSet]:
        """The truth in this model's units: ``(stream id, episode spans,
        number of units, outage spans)``."""
        raise NotImplementedError

    def _synthesis(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> _Synthesis:
        cached = self._cache.get((video, label))
        if cached is not None:
            return cached
        self._check_label(label)
        stream_id, truth_spans, n_units, outage_spans = self._project(
            video, truth, label
        )
        accuracy = self._profile.accuracy_for(label)
        rng = derive_rng(self._seed, "model", self.name, stream_id, label)
        present = presence_mask(truth_spans, n_units)
        interior_tpr = accuracy.effective_interior_tpr
        if accuracy.tpr >= 1.0 and interior_tpr >= 1.0 and accuracy.fpr <= 0.0:
            firing = present
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
        dark = presence_mask(outage_spans, n_units) if outage_spans else None
        self._cache[video, label] = synthesis = _Synthesis(
            firing if dark is None else firing & ~dark,
            firing, present, dark, rng.bit_generator.state,
        )
        return synthesis

    def firing_video(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> np.ndarray:
        """``score_video(...) >= threshold`` per unit, without drawing a
        score: all that Eq. 1–2 count."""
        return self._synthesis(video, truth, label).firing

    def score_video(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> np.ndarray:
        synthesis = self._synthesis(video, truth, label)
        scores = synthesis.scores
        if scores is None:
            rng = derive_rng(None)  # the stream's kind of generator
            rng.bit_generator.state = synthesis.rng_state
            scores = conditional_scores(
                rng, synthesis.drawn, synthesis.present,
                self._profile.threshold, self._profile.score_sharpness,
            )
            if synthesis.dark is not None:
                scores[synthesis.dark] = 0.0
            synthesis.scores = scores
        return scores

    def cache_clear(self) -> None:
        self._cache.clear()


class SimulatedObjectDetector(_SimulatedModel):
    """Per-frame object-type scorer (implements
    :class:`repro.detectors.base.ObjectDetector`)."""

    _kind = "object"

    def _project(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> tuple[str, IntervalSet, int, IntervalSet]:
        return (
            video.video_id, truth.object_frames(label),
            video.usable_frames, truth.outage_frames,
        )

    def score_frame(
        self, video: VideoMeta, truth: GroundTruth, label: str, frame: int
    ) -> float:
        scores = self.score_video(video, truth, label)
        if not 0 <= frame < len(scores):
            raise DetectorError(
                f"frame {frame} outside video {video.video_id!r}"
            )
        self._charge(1)
        return float(scores[frame])

    def score_clip(
        self, video: VideoMeta, truth: GroundTruth, label: str, clip_id: int
    ) -> np.ndarray:
        """All frame scores of one clip (the per-clip inner loop of
        Algorithm 2, vectorised); charges one inference per frame."""
        frames = video.geometry.frames_of_clip(clip_id)
        scores = self.score_video(video, truth, label)
        self._charge(len(frames))
        return scores[frames.start : frames.end + 1]


class SimulatedActionRecognizer(_SimulatedModel):
    """Per-shot action-category scorer (implements
    :class:`repro.detectors.base.ActionRecognizer`)."""

    _kind = "action"

    def _project(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> tuple[str, IntervalSet, int, IntervalSet]:
        geometry = video.geometry
        return (
            # Shot indexing depends on the shot length: its own stream.
            f"{video.video_id}@shot{geometry.frames_per_shot}",
            truth.action_shots(label, geometry),
            video.n_shots,
            geometry.frame_set_to_shots(truth.outage_frames),
        )

    def score_shot(
        self, video: VideoMeta, truth: GroundTruth, label: str, shot: int
    ) -> float:
        scores = self.score_video(video, truth, label)
        if not 0 <= shot < len(scores):
            raise DetectorError(f"shot {shot} outside video {video.video_id!r}")
        self._charge(1)
        return float(scores[shot])

    def score_clip(
        self, video: VideoMeta, truth: GroundTruth, label: str, clip_id: int
    ) -> np.ndarray:
        """All shot scores of one clip; charges one inference per shot."""
        shots = video.geometry.shots_of_clip(clip_id)
        scores = self.score_video(video, truth, label)
        self._charge(len(shots))
        return scores[shots.start : shots.end + 1]
