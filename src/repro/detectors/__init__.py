"""Simulated vision-model substrate.

The paper treats object detectors, action recognisers and trackers as black
boxes ("our proposals are orthogonal to the underlying models").  This
subpackage provides black boxes with the same interfaces and calibrated
noise behaviour — per-frame object scores, per-shot action scores and
tracked object instances — driven by the synthetic ground truth instead of
pixels.  Profiles approximating the accuracy ordering of the paper's model
line-up (Mask R-CNN > YOLOv3; I3D; CenterTrack; Ideal) live in
:mod:`repro.detectors.profiles`.
"""

from repro.detectors.base import (
    ActionRecognizer,
    ObjectDetector,
    ObjectTracker,
    TrackColumns,
)
from repro.detectors.cost import CostMeter
from repro.detectors.faults import (
    FAULT_PROFILES,
    FaultInjector,
    FaultProfile,
    fault_profile,
    faulty_zoo,
)
from repro.detectors.profiles import (
    CENTERTRACK,
    I3D,
    IDEAL_ACTION,
    IDEAL_OBJECT,
    IDEAL_TRACKER,
    MASK_RCNN,
    YOLOV3,
    DetectorProfile,
)
from repro.detectors.simulated import (
    SimulatedActionRecognizer,
    SimulatedObjectDetector,
)
from repro.detectors.retry import RetryPolicy, invoke_with_retry
from repro.detectors.tracker import SimulatedTracker
from repro.detectors.zoo import ModelZoo, default_zoo, ideal_zoo

__all__ = [
    "TrackColumns",
    "ObjectDetector",
    "ActionRecognizer",
    "ObjectTracker",
    "DetectorProfile",
    "MASK_RCNN",
    "YOLOV3",
    "I3D",
    "CENTERTRACK",
    "IDEAL_OBJECT",
    "IDEAL_ACTION",
    "IDEAL_TRACKER",
    "SimulatedObjectDetector",
    "SimulatedActionRecognizer",
    "SimulatedTracker",
    "CostMeter",
    "ModelZoo",
    "default_zoo",
    "ideal_zoo",
    "FaultProfile",
    "FaultInjector",
    "FAULT_PROFILES",
    "fault_profile",
    "faulty_zoo",
    "RetryPolicy",
    "invoke_with_retry",
]
