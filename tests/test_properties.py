"""Cross-module property tests: invariants that hold for any input."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scanstats.critical import critical_value
from repro.scanstats.naus import naus_scan_tail
from repro.storage.ingest import VideoIngest
from repro.storage.repository import VideoRepository
from repro.storage.table import ClipScoreTable
from repro.utils.intervals import Interval, IntervalSet
from repro.video.model import VideoGeometry


# ---------------------------------------------------------------------------
# geometry projections
# ---------------------------------------------------------------------------

geometries = st.builds(
    VideoGeometry,
    frames_per_shot=st.integers(2, 20),
    shots_per_clip=st.integers(1, 10),
)


class TestGeometryProperties:
    @given(geometries, st.integers(0, 5_000))
    def test_frame_clip_shot_consistency(self, geometry, frame):
        shot = geometry.shot_of_frame(frame)
        clip = geometry.clip_of_frame(frame)
        assert frame in geometry.frames_of_shot(shot)
        assert shot in geometry.shots_of_clip(clip)

    @given(
        geometries,
        st.integers(0, 400),
        st.integers(0, 400),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_projection_roundtrip_superset(self, geometry, a, b, cover):
        frames = IntervalSet([Interval(min(a, b), max(a, b))])
        clips = geometry.frame_set_to_clips(frames, min_cover=cover)
        if clips:
            expanded = geometry.clip_set_to_frames(clips)
            # every projected clip intersects the original frames
            assert expanded.intersect(frames).total_length > 0

    @given(geometries, st.integers(0, 100), st.integers(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_full_cover_projection_tight(self, geometry, start_clip, n_clips):
        clips = IntervalSet.single(start_clip, start_clip + n_clips - 1)
        frames = geometry.clip_set_to_frames(clips)
        back = geometry.frame_set_to_clips(frames, min_cover=1.0)
        assert back == clips


# ---------------------------------------------------------------------------
# repository id translation
# ---------------------------------------------------------------------------

def _mini_ingest(video_id: str, n_clips: int) -> VideoIngest:
    rows = [(cid, float(cid)) for cid in range(n_clips)]
    return VideoIngest(
        video_id=video_id,
        n_clips=n_clips,
        object_tables={"x": ClipScoreTable("x", rows)},
        action_tables={"a": ClipScoreTable("a", rows)},
        object_sequences={"x": IntervalSet([(0, n_clips - 1)])},
        action_sequences={"a": IntervalSet([(0, n_clips - 1)])},
    )


class TestRepositoryProperties:
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_global_ids_form_a_bijection(self, sizes):
        repo = VideoRepository()
        for index, size in enumerate(sizes):
            repo.add(_mini_ingest(f"v{index}", size))
        local = [repo.to_local(cid) for cid in repo.all_clips().points()]
        assert len(set(local)) == len(local)  # injective
        assert set(local) == {
            (f"v{index}", clip) for index, size in enumerate(sizes) for clip in range(size)
        }

    @given(st.lists(st.integers(1, 40), min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_sequences_never_span_videos(self, sizes):
        repo = VideoRepository()
        for index, size in enumerate(sizes):
            repo.add(_mini_ingest(f"v{index}", size))
        # every per-label global sequence maps back to exactly one video
        for span in repo.sequences("a"):
            assert repo.to_local(span.start)[0] == repo.to_local(span.end)[0]


# ---------------------------------------------------------------------------
# critical values vs the tail they are defined by
# ---------------------------------------------------------------------------

class TestCriticalValueDefinition:
    @given(
        st.floats(1e-5, 0.3),
        st.integers(3, 30),
        st.integers(2, 50),
        st.floats(0.005, 0.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_quota_is_minimal(self, p, w, multiple, alpha):
        n = w * multiple
        k = critical_value(p, w, n, alpha, cap_at_window=False)
        assert naus_scan_tail(k, w, n, p) <= alpha + 1e-12
        if k > 1:
            assert naus_scan_tail(k - 1, w, n, p) > alpha
