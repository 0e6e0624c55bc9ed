"""Failure injection: recording outages must degrade gracefully.

During an outage nothing is observable — the engines must not hallucinate
results there, must not destabilise their background estimators, and must
recover immediately after the signal returns.
"""

from __future__ import annotations

import pytest

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.core.engine import OnlineEngine
from repro.errors import ConfigurationError
from repro.eval.metrics import match_sequences
from repro.utils.intervals import IntervalSet
from tests.conftest import outage_video

QUERY = Query(objects=["faucet"], action="washing dishes")


class TestOutageModel:
    def test_outage_frames_recorded(self):
        video = outage_video()
        spans = video.truth.outage_frames
        assert spans.total_length == pytest.approx(60 * 25, abs=2)

    def test_detector_silent_during_outage(self, zoo):
        video = outage_video()
        scores = zoo.detector.score_video(video.meta, video.truth, "faucet")
        for frame in video.truth.outage_frames.points():
            if frame < video.meta.usable_frames:
                assert scores[frame] == 0.0

    def test_recognizer_silent_during_outage(self, zoo):
        video = outage_video()
        scores = zoo.recognizer.score_video(
            video.meta, video.truth, "washing dishes"
        )
        outage_shots = video.meta.geometry.frame_set_to_shots(
            video.truth.outage_frames
        )
        for shot in outage_shots.points():
            if shot < video.meta.n_shots:
                assert scores[shot] == 0.0

    def test_tracker_silent_during_outage(self, zoo):
        video = outage_video()
        outage = video.truth.outage_frames
        frames = zoo.tracker.tracks_in_video(video.meta, video.truth, "faucet").frames
        assert len(frames)
        assert all(frame not in outage for frame in frames.tolist())

    def test_invalid_outage_rejected(self):
        with pytest.raises(ConfigurationError):
            outage_video(outages=((300.0, 500.0),))


class TestEngineUnderOutage:
    def test_no_results_inside_outage(self, zoo):
        video = outage_video()
        result = OnlineEngine(zoo, OnlineConfig()).run(QUERY, video)
        outage_clips = video.meta.geometry.frame_set_to_clips(
            video.truth.outage_frames, min_cover=0.99
        )
        assert not result.sequences.intersect(outage_clips)

    def test_recovers_after_outage(self, zoo):
        video = outage_video()
        result = OnlineEngine(zoo, OnlineConfig()).run(QUERY, video)
        geometry = video.meta.geometry
        outage_end_clip = geometry.clip_of_frame(
            video.truth.outage_frames.bounding().end
        )
        # ground truth restricted to the post-outage region
        truth = video.truth.query_clips(["faucet"], "washing dishes", geometry)
        post_truth = truth.clipped(outage_end_clip + 2, video.meta.n_clips - 1)
        post_found = result.sequences.clipped(
            outage_end_clip + 2, video.meta.n_clips - 1
        )
        if post_truth:
            report = match_sequences(post_found, post_truth)
            assert report.recall >= 0.5

    def test_estimators_survive_outage(self, zoo):
        video = outage_video()
        result = OnlineEngine(zoo, OnlineConfig()).run(QUERY, video)
        for label, rate in result.final_rates.items():
            assert 0.0 < rate < 0.5, (label, rate)

    def test_clean_run_unaffected_by_feature(self, zoo):
        """A video without outages behaves identically to one built before
        the feature existed (empty outage set is the default)."""
        video = outage_video(outages=())
        assert video.truth.outage_frames == IntervalSet.empty()
        result = OnlineEngine(zoo, OnlineConfig()).run(QUERY, video)
        truth = video.truth.query_clips(
            ["faucet"], "washing dishes", video.meta.geometry
        )
        assert match_sequences(result.sequences, truth).f1 >= 0.5
