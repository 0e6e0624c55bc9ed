"""The frame / shot / clip hierarchy of §2.

* A **frame** is the occurrence unit for object detection.
* A **shot** is a fixed-length run of frames — the input unit of action
  recognition (typical length 10–30 frames in the literature).
* A **clip** is a fixed-length run of shots — the unit at which query
  predicates are decided (Eqs. 1–3) and whose length is the tunable
  parameter studied in Figures 4–5.
* A **sequence** is a run of clips — the query result granularity; sequences
  are represented with :class:`repro.utils.intervals.IntervalSet` over clip
  ids rather than a class here.

:class:`VideoGeometry` owns all index arithmetic between the three layers so
that off-by-one conversions exist in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import VideoModelError
from repro.utils.intervals import Interval, IntervalSet
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class VideoGeometry:
    """Fixed layout of frames into shots and shots into clips.

    Parameters mirror the example in Figure 1: with ``frames_per_shot=10``
    and ``shots_per_clip=5``, each clip spans 50 frames (two seconds at
    25 fps).
    """

    frames_per_shot: int = 10
    shots_per_clip: int = 5
    fps: float = 25.0

    def __post_init__(self) -> None:
        require_positive_int(self.frames_per_shot, "frames_per_shot")
        require_positive_int(self.shots_per_clip, "shots_per_clip")
        if self.fps <= 0:
            raise VideoModelError(f"fps must be positive; got {self.fps}")

    @property
    def frames_per_clip(self) -> int:
        return self.frames_per_shot * self.shots_per_clip

    # -- frame <-> shot ---------------------------------------------------------

    def shot_of_frame(self, frame: int) -> int:
        self._check_index(frame, "frame")
        return frame // self.frames_per_shot

    def frames_of_shot(self, shot: int) -> Interval:
        self._check_index(shot, "shot")
        start = shot * self.frames_per_shot
        return Interval(start, start + self.frames_per_shot - 1)

    # -- frame <-> clip ----------------------------------------------------------

    def clip_of_frame(self, frame: int) -> int:
        self._check_index(frame, "frame")
        return frame // self.frames_per_clip

    def frames_of_clip(self, clip: int) -> Interval:
        self._check_index(clip, "clip")
        start = clip * self.frames_per_clip
        return Interval(start, start + self.frames_per_clip - 1)

    # -- shot <-> clip ------------------------------------------------------------

    def shots_of_clip(self, clip: int) -> Interval:
        self._check_index(clip, "clip")
        start = clip * self.shots_per_clip
        return Interval(start, start + self.shots_per_clip - 1)

    # -- durations -------------------------------------------------------------------

    def seconds_to_frames(self, seconds: float) -> int:
        return int(round(seconds * self.fps))

    def frames_to_seconds(self, frames: int) -> float:
        return frames / self.fps

    def with_clip_frames(self, frames_per_clip: int) -> "VideoGeometry":
        """A geometry with the same shot length but a different clip length
        (must be a whole number of shots) — used by the clip-size sweeps."""
        require_positive_int(frames_per_clip, "frames_per_clip")
        if frames_per_clip % self.frames_per_shot != 0:
            raise VideoModelError(
                f"clip length {frames_per_clip} is not a multiple of the shot "
                f"length {self.frames_per_shot}"
            )
        return replace(
            self, shots_per_clip=frames_per_clip // self.frames_per_shot
        )

    # -- interval conversions ------------------------------------------------------

    def frame_interval_to_clips(
        self, frames: Interval, min_cover: float = 0.5
    ) -> Interval | None:
        """Clips covered by a frame interval.

        A clip counts as covered when at least ``min_cover`` of its frames
        lie inside the interval; this is how frame-level ground truth is
        projected to clip-level result sequences for evaluation.  Returns
        ``None`` if no clip reaches the threshold.
        """
        if not 0.0 < min_cover <= 1.0:
            raise VideoModelError(f"min_cover must be in (0, 1]; got {min_cover}")
        first = self.clip_of_frame(frames.start)
        last = self.clip_of_frame(frames.end)
        needed = min_cover * self.frames_per_clip
        while first <= last:
            covered = self.frames_of_clip(first).intersection(frames)
            if covered is not None and len(covered) >= needed:
                break
            first += 1
        else:  # pragma: no cover - loop always breaks or exits via condition
            return None
        while last >= first:
            covered = self.frames_of_clip(last).intersection(frames)
            if covered is not None and len(covered) >= needed:
                break
            last -= 1
        if first > last:
            return None
        return Interval(first, last)

    def frame_set_to_clips(
        self, frames: IntervalSet, min_cover: float = 0.5
    ) -> IntervalSet:
        """Project a frame-level interval set to clip ids (see above)."""
        clips = []
        for iv in frames:
            projected = self.frame_interval_to_clips(iv, min_cover=min_cover)
            if projected is not None:
                clips.append(projected)
        return IntervalSet(clips)

    def clip_set_to_frames(self, clips: IntervalSet) -> IntervalSet:
        """Expand clip-id intervals back to the frames they span."""
        return IntervalSet(
            Interval(
                iv.start * self.frames_per_clip,
                (iv.end + 1) * self.frames_per_clip - 1,
            )
            for iv in clips
        )

    def frame_set_to_shots(self, frames: IntervalSet, min_cover: float = 0.5) -> IntervalSet:
        """Project frame intervals to shot indices (for action ground truth)."""
        if not 0.0 < min_cover <= 1.0:
            raise VideoModelError(f"min_cover must be in (0, 1]; got {min_cover}")
        shots: list[Interval] = []
        needed = min_cover * self.frames_per_shot
        for iv in frames:
            first = self.shot_of_frame(iv.start)
            last = self.shot_of_frame(iv.end)
            while first <= last:
                covered = self.frames_of_shot(first).intersection(iv)
                if covered is not None and len(covered) >= needed:
                    break
                first += 1
            while last >= first:
                covered = self.frames_of_shot(last).intersection(iv)
                if covered is not None and len(covered) >= needed:
                    break
                last -= 1
            if first <= last:
                shots.append(Interval(first, last))
        return IntervalSet(shots)

    @staticmethod
    def _check_index(value: int, name: str) -> None:
        if value < 0:
            raise VideoModelError(f"{name} index must be >= 0; got {value}")


@dataclass(frozen=True)
class VideoMeta:
    """Identity and extent of one video.

    The trailing partial clip (fewer than ``frames_per_clip`` frames) is
    dropped from processing, matching the fixed-length clip definition of
    §2; ``n_frames`` below therefore reports the usable extent.
    """

    video_id: str
    n_frames: int
    geometry: VideoGeometry = field(default_factory=VideoGeometry)
    title: str = ""

    def __post_init__(self) -> None:
        require_positive_int(self.n_frames, "n_frames")
        if self.n_clips == 0:
            raise VideoModelError(
                f"video {self.video_id!r} is shorter than one clip "
                f"({self.n_frames} < {self.geometry.frames_per_clip} frames)"
            )

    @property
    def n_clips(self) -> int:
        return self.n_frames // self.geometry.frames_per_clip

    @property
    def n_shots(self) -> int:
        return self.n_clips * self.geometry.shots_per_clip

    @property
    def usable_frames(self) -> int:
        return self.n_clips * self.geometry.frames_per_clip

    @property
    def duration_seconds(self) -> float:
        return self.geometry.frames_to_seconds(self.n_frames)

    def with_geometry(self, geometry: VideoGeometry) -> "VideoMeta":
        """The same video re-segmented under a different geometry (the
        clip-size experiments re-slice identical content)."""
        return VideoMeta(
            video_id=self.video_id,
            n_frames=self.n_frames,
            geometry=geometry,
            title=self.title,
        )


@dataclass(frozen=True)
class ClipView:
    """A clip of a specific video: the unit handed to Algorithm 2."""

    video: VideoMeta
    clip_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.clip_id < self.video.n_clips:
            raise VideoModelError(
                f"clip {self.clip_id} outside video "
                f"{self.video.video_id!r} (0..{self.video.n_clips - 1})"
            )
