"""Frame/shot/clip geometry — all index arithmetic in one place."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import VideoModelError
from repro.utils.intervals import Interval, IntervalSet
from repro.video.model import ClipView, VideoGeometry, VideoMeta


GEO = VideoGeometry(frames_per_shot=10, shots_per_clip=5, fps=25.0)


class TestGeometry:
    def test_frames_per_clip(self):
        assert GEO.frames_per_clip == 50

    def test_frame_shot_clip_roundtrips(self):
        assert GEO.shot_of_frame(0) == 0
        assert GEO.shot_of_frame(19) == 1
        assert GEO.clip_of_frame(49) == 0
        assert GEO.clip_of_frame(50) == 1

    def test_span_lookups(self):
        assert GEO.frames_of_shot(2) == Interval(20, 29)
        assert GEO.frames_of_clip(1) == Interval(50, 99)
        assert GEO.shots_of_clip(2) == Interval(10, 14)

    @given(st.integers(0, 10_000))
    def test_frame_in_its_own_clip_span(self, frame):
        clip = GEO.clip_of_frame(frame)
        assert frame in GEO.frames_of_clip(clip)

    def test_negative_indices_rejected(self):
        with pytest.raises(VideoModelError):
            GEO.clip_of_frame(-1)

    def test_seconds_conversion(self):
        assert GEO.seconds_to_frames(2.0) == 50
        assert GEO.frames_to_seconds(50) == pytest.approx(2.0)

    def test_with_clip_frames(self):
        resized = GEO.with_clip_frames(80)
        assert resized.shots_per_clip == 8
        assert resized.frames_per_shot == 10

    def test_with_clip_frames_requires_multiple(self):
        with pytest.raises(VideoModelError):
            GEO.with_clip_frames(55)

    def test_invalid_construction(self):
        with pytest.raises(Exception):
            VideoGeometry(frames_per_shot=0)
        with pytest.raises(VideoModelError):
            VideoGeometry(fps=0)


class TestIntervalProjection:
    def test_frame_interval_to_clips_majority(self):
        # frames 0..74 cover clip 0 fully, half of clip 1
        assert GEO.frame_interval_to_clips(Interval(0, 74)) == Interval(0, 1)
        # frames 0..70: clip 1 has 21 frames < 25 needed
        assert GEO.frame_interval_to_clips(Interval(0, 70)) == Interval(0, 0)

    def test_projection_none_when_too_small(self):
        assert GEO.frame_interval_to_clips(Interval(40, 55)) is None

    def test_full_cover_requirement(self):
        assert GEO.frame_interval_to_clips(Interval(0, 99), min_cover=1.0) == Interval(0, 1)
        assert GEO.frame_interval_to_clips(Interval(0, 98), min_cover=1.0) == Interval(0, 0)

    def test_clip_set_to_frames_roundtrip(self):
        clips = IntervalSet([(1, 2)])
        frames = GEO.clip_set_to_frames(clips)
        assert frames.as_tuples() == [(50, 149)]
        assert GEO.frame_set_to_clips(frames, min_cover=1.0) == clips

    def test_frame_set_to_shots(self):
        frames = IntervalSet([(0, 24)])  # shots 0,1 full; shot 2 half
        shots = GEO.frame_set_to_shots(frames, min_cover=0.5)
        assert shots.as_tuples() == [(0, 2)]

    def test_invalid_cover(self):
        with pytest.raises(VideoModelError):
            GEO.frame_interval_to_clips(Interval(0, 10), min_cover=0.0)


class TestVideoMeta:
    def test_counts_drop_partial_clip(self):
        meta = VideoMeta(video_id="v", n_frames=130, geometry=GEO)
        assert meta.n_clips == 2
        assert meta.n_shots == 10
        assert meta.usable_frames == 100

    def test_too_short_video_rejected(self):
        with pytest.raises(VideoModelError):
            VideoMeta(video_id="v", n_frames=30, geometry=GEO)

    def test_duration(self):
        meta = VideoMeta(video_id="v", n_frames=250, geometry=GEO)
        assert meta.duration_seconds == pytest.approx(10.0)

    def test_with_geometry(self):
        meta = VideoMeta(video_id="v", n_frames=400, geometry=GEO)
        resized = meta.with_geometry(GEO.with_clip_frames(100))
        assert resized.n_clips == 4
        assert resized.video_id == "v"


class TestClipView:
    def test_out_of_range(self):
        meta = VideoMeta(video_id="v", n_frames=200, geometry=GEO)
        with pytest.raises(VideoModelError):
            ClipView(meta, 4)
