"""Annotation import/export round-trips."""

from __future__ import annotations

import json

import pytest

from repro.errors import GroundTruthError
from repro.video.annotations import (
    ground_truth_from_dict,
    ground_truth_to_dict,
    load_annotations,
    save_annotations,
)
from tests.conftest import make_kitchen_video


class TestRoundTrip:
    def test_dict_roundtrip_preserves_everything(self):
        truth = make_kitchen_video(seed=81, video_id="ann").truth
        restored = ground_truth_from_dict(ground_truth_to_dict(truth))
        assert restored.n_frames == truth.n_frames
        for label in truth.object_labels:
            assert restored.object_frames(label) == truth.object_frames(label)
            assert restored.object_instances(label) == truth.object_instances(label)
        for label in truth.action_labels:
            assert restored.action_frames(label) == truth.action_frames(label)
        assert restored.outage_frames == truth.outage_frames

    def test_file_roundtrip(self, tmp_path):
        truth = make_kitchen_video(seed=82, video_id="ann2").truth
        path = save_annotations(truth, tmp_path / "annotations.json")
        restored = load_annotations(path)
        assert ground_truth_to_dict(restored) == ground_truth_to_dict(truth)

    def test_document_is_plain_json(self, tmp_path):
        truth = make_kitchen_video(seed=83, video_id="ann3").truth
        path = save_annotations(truth, tmp_path / "a.json")
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "n_frames", "objects", "actions", "instances", "outage_frames"
        }

    def test_detectors_agree_on_restored_truth(self, zoo, tmp_path):
        """Restored annotations drive the simulated models identically."""
        video = make_kitchen_video(seed=84, video_id="ann4")
        path = save_annotations(video.truth, tmp_path / "a.json")
        restored = load_annotations(path)
        original = zoo.detector.score_video(video.meta, video.truth, "faucet")
        again = zoo.detector.score_video(video.meta, restored, "faucet")
        assert (original == again).all()


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(GroundTruthError):
            load_annotations(tmp_path / "ghost.json")

    def test_malformed_document(self):
        with pytest.raises(GroundTruthError):
            ground_truth_from_dict({"objects": {}})  # n_frames missing

    def test_out_of_range_rejected_on_load(self):
        with pytest.raises(GroundTruthError):
            ground_truth_from_dict(
                {
                    "n_frames": 10, "objects": {"x": [[5, 50]]}, "actions": {},
                    "instances": {}, "outage_frames": [],
                }
            )
