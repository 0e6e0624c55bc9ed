"""The Table 1 / Table 2 dataset builders."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.video.datasets import (
    MOVIES,
    YOUTUBE_QUERY_SETS,
    build_movie,
    build_youtube_set,
    movie_by_title,
    youtube_set_by_id,
)


class TestSpecs:
    def test_twelve_query_sets(self):
        assert len(YOUTUBE_QUERY_SETS) == 12
        assert {s.qid for s in YOUTUBE_QUERY_SETS} == {
            f"q{i}" for i in range(1, 13)
        }

    def test_table1_rows_match_paper(self):
        q1 = youtube_set_by_id("q1")
        assert q1.action == "washing dishes"
        assert q1.objects == ("faucet", "oven")
        assert q1.minutes == 57
        q12 = youtube_set_by_id("q12")
        assert q12.action == "archery"
        assert q12.minutes == 156

    def test_four_movies_match_paper(self):
        assert len(MOVIES) == 4
        coffee = movie_by_title("Coffee and Cigarettes")
        assert coffee.action == "smoking"
        assert coffee.objects == ("wine glass", "cup")
        assert coffee.minutes == 96
        titanic = movie_by_title("Titanic")
        assert titanic.minutes == 194

    def test_unknown_lookups(self):
        with pytest.raises(ConfigurationError):
            youtube_set_by_id("q99")
        with pytest.raises(ConfigurationError):
            movie_by_title("Sharknado")


class TestYouTubeBuilder:
    def test_total_length_scales(self):
        spec = youtube_set_by_id("q2")  # 52 minutes at full scale
        qs = build_youtube_set(spec, seed=0, scale=0.1)
        minutes = sum(v.meta.duration_seconds for v in qs.videos) / 60.0
        assert minutes == pytest.approx(5.2, rel=0.35)

    def test_videos_carry_query_labels(self):
        spec = youtube_set_by_id("q1")
        qs = build_youtube_set(spec, seed=0, scale=0.05)
        video = qs.videos[0]
        assert video.truth.action_frames(spec.action)
        for obj in spec.objects:
            assert obj in video.truth.objects
        assert "person" in video.truth.objects

    def test_deterministic(self):
        spec = youtube_set_by_id("q5")
        a = build_youtube_set(spec, seed=3, scale=0.05)
        b = build_youtube_set(spec, seed=3, scale=0.05)
        assert len(a.videos) == len(b.videos)
        assert a.videos[0].truth.action_frames(spec.action) == b.videos[
            0
        ].truth.action_frames(spec.action)

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            build_youtube_set(youtube_set_by_id("q1"), scale=0.0)


class TestMovieBuilder:
    def test_duration_scales(self):
        spec = movie_by_title("Iron Man")  # 126 minutes
        video = build_movie(spec, seed=0, scale=0.1)
        assert video.meta.duration_seconds == pytest.approx(
            126 * 60 * 0.1, rel=0.01
        )

    def test_ground_truth_sequence_count_in_band(self):
        spec = movie_by_title("Coffee and Cigarettes")
        video = build_movie(spec, seed=0, scale=1.0)
        truth = video.truth.query_clips(
            spec.objects, spec.action, video.meta.geometry
        )
        # target 21 ground-truth sequences at full scale; correlation and
        # projection shave some — accept a generous band around it.
        assert 8 <= len(truth) <= 35

    def test_deterministic(self):
        spec = movie_by_title("Titanic")
        a = build_movie(spec, seed=1, scale=0.05)
        b = build_movie(spec, seed=1, scale=0.05)
        assert a.truth.action_frames(spec.action) == b.truth.action_frames(
            spec.action
        )
