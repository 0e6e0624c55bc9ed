"""Ground-truth annotations and their query-level intersections."""

from __future__ import annotations

import pytest

from repro.errors import GroundTruthError
from repro.utils.intervals import IntervalSet
from repro.video.ground_truth import GroundTruth
from repro.video.model import VideoGeometry

GEO = VideoGeometry()


def make_truth() -> GroundTruth:
    return GroundTruth(
        n_frames=1_000,
        objects={
            "faucet": IntervalSet([(100, 400), (600, 700)]),
            "person": IntervalSet([(0, 999)]),
        },
        actions={"washing dishes": IntervalSet([(150, 450)])},
    )


class TestLookups:
    def test_labels(self):
        truth = make_truth()
        assert set(truth.objects) == {"faucet", "person"}
        assert tuple(truth.actions) == ("washing dishes",)

    def test_unknown_label_empty(self):
        truth = make_truth()
        assert truth.object_frames("zebra") == IntervalSet.empty()
        assert truth.action_frames("juggling") == IntervalSet.empty()

    def test_instances_default_one_per_episode(self):
        truth = make_truth()
        instances = truth.object_instances("faucet")
        assert len(instances) == 2
        assert instances[0].as_tuples() == [(100, 400)]


class TestQueryTruth:
    def test_query_frames_intersection(self):
        truth = make_truth()
        frames = truth.query_frames(["faucet"], "washing dishes")
        assert frames.as_tuples() == [(150, 400)]

    def test_query_frames_multiple_objects(self):
        truth = make_truth()
        frames = truth.query_frames(["faucet", "person"], "washing dishes")
        assert frames.as_tuples() == [(150, 400)]

    def test_query_frames_disjoint(self):
        truth = make_truth()
        assert truth.query_frames(["faucet"], "juggling") == IntervalSet.empty()

    def test_query_clips_projection(self):
        truth = make_truth()
        clips = truth.query_clips(["faucet"], "washing dishes", GEO)
        # frames 150..400 -> clips 3..7 (clip 8 = frames 400..449: 1 frame)
        assert clips.as_tuples() == [(3, 7)]

    def test_action_shots(self):
        truth = make_truth()
        shots = truth.action_shots("washing dishes", GEO)
        assert shots.as_tuples() == [(15, 44)]


class TestValidation:
    def test_out_of_range_annotation_rejected(self):
        with pytest.raises(GroundTruthError):
            GroundTruth(
                n_frames=100,
                objects={"x": IntervalSet([(50, 150)])},
            )

    def test_non_positive_length_rejected(self):
        with pytest.raises(GroundTruthError):
            GroundTruth(n_frames=0)
