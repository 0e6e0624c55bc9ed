"""Simulated detectors: calibration, caching, determinism, vocabularies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors.cost import CostMeter
from repro.detectors.profiles import I3D, IDEAL_OBJECT, MASK_RCNN, YOLOV3
from repro.detectors.simulated import (
    SimulatedActionRecognizer,
    SimulatedObjectDetector,
    edge_mask,
    presence_mask,
)
from repro.errors import DetectorError
from repro.utils.intervals import IntervalSet
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=11, duration_s=900.0, video_id="calib")


def empirical_rates(detector, label: str) -> tuple[float, float]:
    scores = detector.score_video(VIDEO.meta, VIDEO.truth, label)
    present = presence_mask(
        VIDEO.truth.object_frames(label), VIDEO.meta.usable_frames
    )
    firing = scores >= detector.threshold
    tpr = firing[present].mean() if present.any() else 0.0
    fpr = firing[~present].mean() if (~present).any() else 0.0
    return float(tpr), float(fpr)


class TestMasks:
    def test_presence_mask(self):
        mask = presence_mask(IntervalSet([(2, 4)]), 8)
        assert mask.tolist() == [False, False, True, True, True, False, False, False]

    def test_edge_mask(self):
        mask = edge_mask(IntervalSet([(2, 9)]), 12, edge_units=2)
        assert np.flatnonzero(mask).tolist() == [2, 3, 8, 9]

    def test_edge_mask_zero_width(self):
        assert not edge_mask(IntervalSet([(0, 5)]), 10, 0).any()


class TestCalibration:
    def test_maskrcnn_fpr(self):
        _, fpr = empirical_rates(SimulatedObjectDetector(MASK_RCNN, seed=0), "faucet")
        assert fpr == pytest.approx(MASK_RCNN.default.fpr, abs=0.02)

    def test_interior_tpr_dominates_long_episodes(self):
        detector = SimulatedObjectDetector(MASK_RCNN, seed=0)
        tpr, _ = empirical_rates(detector, "faucet")
        # pooled TPR sits between the edge and interior rates
        assert MASK_RCNN.default.tpr - 0.05 <= tpr <= 1.0

    def test_yolo_noisier_than_maskrcnn(self):
        mask_tpr, mask_fpr = empirical_rates(
            SimulatedObjectDetector(MASK_RCNN, seed=0), "faucet"
        )
        yolo_tpr, yolo_fpr = empirical_rates(
            SimulatedObjectDetector(YOLOV3, seed=0), "faucet"
        )
        assert yolo_fpr > mask_fpr
        assert yolo_tpr < mask_tpr + 0.02

    def test_ideal_matches_truth_exactly(self):
        detector = SimulatedObjectDetector(IDEAL_OBJECT, seed=0)
        tpr, fpr = empirical_rates(detector, "faucet")
        assert tpr == 1.0
        assert fpr == 0.0


class TestDeterminismAndCaching:
    def test_score_video_cached_identity(self):
        detector = SimulatedObjectDetector(MASK_RCNN, seed=0)
        a = detector.score_video(VIDEO.meta, VIDEO.truth, "faucet")
        b = detector.score_video(VIDEO.meta, VIDEO.truth, "faucet")
        assert a is b

    def test_same_seed_same_scores(self):
        a = SimulatedObjectDetector(MASK_RCNN, seed=0).score_video(
            VIDEO.meta, VIDEO.truth, "faucet"
        )
        b = SimulatedObjectDetector(MASK_RCNN, seed=0).score_video(
            VIDEO.meta, VIDEO.truth, "faucet"
        )
        assert (a == b).all()

    def test_different_seed_different_scores(self):
        a = SimulatedObjectDetector(MASK_RCNN, seed=0).score_video(
            VIDEO.meta, VIDEO.truth, "faucet"
        )
        b = SimulatedObjectDetector(MASK_RCNN, seed=1).score_video(
            VIDEO.meta, VIDEO.truth, "faucet"
        )
        assert not (a == b).all()


class TestAccessPaths:
    def test_score_clip_slices(self):
        detector = SimulatedObjectDetector(MASK_RCNN, seed=0)
        scores = detector.score_video(VIDEO.meta, VIDEO.truth, "faucet")
        clip = detector.score_clip(VIDEO.meta, VIDEO.truth, "faucet", 2)
        assert (clip == scores[100:150]).all()

    def test_cost_charged(self):
        meter = CostMeter()
        detector = SimulatedObjectDetector(MASK_RCNN, seed=0, cost_meter=meter)
        detector.score_clip(VIDEO.meta, VIDEO.truth, "faucet", 0)
        assert meter.units("MaskRCNN") == 50
        assert meter.ms("MaskRCNN") == pytest.approx(50 * MASK_RCNN.ms_per_unit)


class TestVocabulary:
    def test_closed_vocabulary_enforced(self):
        detector = SimulatedObjectDetector(
            MASK_RCNN, seed=0, vocabulary=frozenset({"faucet"})
        )
        with pytest.raises(DetectorError):
            detector.score_video(VIDEO.meta, VIDEO.truth, "zebra")

    def test_open_vocabulary_accepts_anything(self):
        detector = SimulatedObjectDetector(MASK_RCNN, seed=0)
        scores = detector.score_video(VIDEO.meta, VIDEO.truth, "zebra")
        # unknown label: pure background noise
        assert (scores >= detector.threshold).mean() < 0.1

    def test_wrong_profile_kind_rejected(self):
        with pytest.raises(DetectorError):
            SimulatedObjectDetector(I3D)
        with pytest.raises(DetectorError):
            SimulatedActionRecognizer(MASK_RCNN)


class TestActionRecognizer:
    def test_shot_granularity(self):
        recognizer = SimulatedActionRecognizer(I3D, seed=0)
        scores = recognizer.score_video(VIDEO.meta, VIDEO.truth, "washing dishes")
        assert scores.shape == (VIDEO.meta.n_shots,)

    def test_fires_inside_action(self):
        recognizer = SimulatedActionRecognizer(I3D, seed=0)
        scores = recognizer.score_video(VIDEO.meta, VIDEO.truth, "washing dishes")
        shots = VIDEO.truth.action_shots("washing dishes", VIDEO.meta.geometry)
        present = presence_mask(shots, VIDEO.meta.n_shots)
        firing = scores >= recognizer.threshold
        assert firing[present].mean() > 0.7
        assert firing[~present].mean() < 0.1
