"""Clip streaming: the Algorithm 1 interface (end / next)."""

from __future__ import annotations

import pytest

from repro.errors import VideoModelError
from repro.video.model import VideoGeometry, VideoMeta
from repro.video.stream import ClipStream

META = VideoMeta(video_id="v", n_frames=500, geometry=VideoGeometry())  # 10 clips


class TestStreaming:
    def test_full_pass(self):
        stream = ClipStream(META)
        seen = [clip.clip_id for clip in stream]
        assert seen == list(range(10))
        assert stream.end()

    def test_next_after_end_raises(self):
        stream = ClipStream(META, start_clip=9)
        stream.next()
        with pytest.raises(VideoModelError):
            stream.next()

    def test_bounded_stream(self):
        stream = ClipStream(META, start_clip=2, stop_clip=5)
        assert len(stream) == 3
        assert [c.clip_id for c in stream] == [2, 3, 4]

    def test_rewind(self):
        stream = ClipStream(META)
        list(stream)
        stream.rewind()
        assert not stream.end()
        assert stream.next().clip_id == 0

    def test_position(self):
        stream = ClipStream(META)
        stream.next()
        assert stream.position == 1

    def test_invalid_bounds(self):
        with pytest.raises(VideoModelError):
            ClipStream(META, start_clip=5, stop_clip=3)
        with pytest.raises(VideoModelError):
            ClipStream(META, stop_clip=11)

    def test_take_hands_out_ids_without_views(self):
        stream = ClipStream(META, start_clip=2, stop_clip=9)
        assert stream.take(3) == range(2, 5)
        assert stream.next().clip_id == 5
        assert stream.take(0) == range(6, 6) and stream.take(-1) == range(6, 6)
        assert stream.take(8) == range(6, 9) and stream.end()
        assert stream.take(8) == range(9, 9) and stream.rest() == range(9, 9)
