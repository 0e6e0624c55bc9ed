"""Detector interfaces and detection records.

The query engines depend only on these protocols, mirroring §2:

* an :class:`ObjectDetector` scores object types on *frames*
  (``maxS_o(v)`` — the maximum instance score per type per frame);
* an :class:`ActionRecognizer` scores action categories on *shots*
  (``S_a(s)``);
* an :class:`ObjectTracker` yields per-instance, per-frame scores with
  stable track identifiers (``S_o^t(v)``) — the inputs of the offline
  ranking function ``h`` (Eq. 7).

All three expose whole-video vectorised variants (``score_video``, the
tracker's ``tracks_in_video``): ingestion (§4.2) works label by label.  The
online loop reads counts of above-threshold units, not scores: of a model that
also offers ``firing_video`` (the simulated ones do) the cache asks for none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Protocol, runtime_checkable

import numpy as np

from repro.video.model import ClipView, VideoMeta
from repro.video.ground_truth import GroundTruth


@dataclass(frozen=True)
class Detection:
    """One object detection on one frame: ``(label, frame, score)``."""

    label: str
    frame: int
    score: float


@dataclass(frozen=True)
class TrackedDetection:
    """A tracked object instance observation: adds a stable track id."""

    label: str
    frame: int
    track_id: int
    score: float


class TrackColumns(NamedTuple):
    """Every tracked observation of one label over one video, as columns.

    Row ``i`` is the observation ``(frames[i], track_ids[i], scores[i])``;
    rows are sorted by frame, and inside a frame by track id.
    """

    frames: np.ndarray
    track_ids: np.ndarray
    scores: np.ndarray


@runtime_checkable
class ObjectDetector(Protocol):
    """Per-frame object-type scorer (the ``O(o_i | v)`` oracle of §2)."""

    @property
    def name(self) -> str: ...

    def score_frame(
        self, video: VideoMeta, truth: GroundTruth, label: str, frame: int
    ) -> float:
        """``maxS_o(v)``: the maximum score of any instance of ``label``
        on ``frame`` (0 when nothing fires)."""
        ...

    def score_video(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> np.ndarray:
        """Vector of ``score_frame`` over all usable frames of the video."""
        ...


@runtime_checkable
class ActionRecognizer(Protocol):
    """Per-shot action-category scorer (the ``A(a | s)`` oracle of §2)."""

    @property
    def name(self) -> str: ...

    def score_shot(
        self, video: VideoMeta, truth: GroundTruth, label: str, shot: int
    ) -> float: ...

    def score_video(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> np.ndarray:
        """Vector of ``score_shot`` over all usable shots of the video."""
        ...


@runtime_checkable
class ObjectTracker(Protocol):
    """Tracked per-instance scorer feeding the ranking function ``h``."""

    @property
    def name(self) -> str: ...

    def tracks_in_clip(
        self, video: VideoMeta, truth: GroundTruth, label: str, clip: ClipView
    ) -> list[TrackedDetection]:
        """All tracked observations of ``label`` inside one clip."""
        ...

    def tracks_in_video(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> TrackColumns:
        """All tracked observations of ``label`` over the usable frames of
        the video — the concatenation of ``tracks_in_clip`` over its clips."""
        ...
