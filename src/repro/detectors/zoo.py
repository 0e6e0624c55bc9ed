"""Model zoo: bundles a detector + recognizer + tracker into one line-up.

The engines need the three models to agree on thresholds and vocabularies,
and the experiments swap whole line-ups (MaskRCNN+I3D vs YOLOv3+I3D vs
Ideal, Table 4); :class:`ModelZoo` packages that.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.detectors.cost import CostMeter
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
from repro.detectors.tracker import SimulatedTracker
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ModelZoo:
    """One deployed line-up of vision models sharing a cost meter."""

    detector: SimulatedObjectDetector
    recognizer: SimulatedActionRecognizer
    tracker: SimulatedTracker
    cost_meter: CostMeter

    def fork(self) -> "ModelZoo":
        """A clone of this line-up with a fresh, zeroed cost meter.

        The simulated models are deterministic functions of their profile
        and seed, so a fork scores identically to the original; only the
        cost accounting is private.  Threaded ingestion forks one zoo per
        video and folds the charges back with :meth:`CostMeter.merge`,
        avoiding cross-thread races on the shared meter.
        """
        clone = copy.deepcopy(self)
        clone.cost_meter.reset()
        return clone


def build_zoo(
    object_profile: DetectorProfile = MASK_RCNN,
    action_profile: DetectorProfile = I3D,
    tracker_profile: DetectorProfile = CENTERTRACK,
    seed: int = 0,
    object_vocabulary: frozenset[str] | None = None,
    action_vocabulary: frozenset[str] | None = None,
    cost_meter: CostMeter | None = None,
) -> ModelZoo:
    """Assemble a zoo from profiles; one shared :class:`CostMeter`.

    ``cost_meter`` substitutes the shared meter — benchmarks inject a
    wall-clock-burning subclass to turn simulated milliseconds into real
    elapsed time.
    """
    if object_profile.kind != "object" or action_profile.kind != "action":
        raise ConfigurationError("profiles passed to the wrong zoo slots")
    meter = cost_meter if cost_meter is not None else CostMeter()
    return ModelZoo(
        detector=SimulatedObjectDetector(
            object_profile, seed=seed, vocabulary=object_vocabulary, cost_meter=meter
        ),
        recognizer=SimulatedActionRecognizer(
            action_profile, seed=seed, vocabulary=action_vocabulary, cost_meter=meter
        ),
        tracker=SimulatedTracker(
            tracker_profile, seed=seed, vocabulary=object_vocabulary, cost_meter=meter
        ),
        cost_meter=meter,
    )


def default_zoo(seed: int = 0) -> ModelZoo:
    """The paper's headline line-up: Mask R-CNN + I3D + CenterTrack."""
    return build_zoo(MASK_RCNN, I3D, CENTERTRACK, seed=seed)


def yolo_zoo(seed: int = 0) -> ModelZoo:
    """The faster/noisier line-up: YOLOv3 + I3D + CenterTrack (Table 4)."""
    return build_zoo(YOLOV3, I3D, CENTERTRACK, seed=seed)


def ideal_zoo(seed: int = 0) -> ModelZoo:
    """Ideal models matching ground truth exactly (Table 4's sanity rows)."""
    return build_zoo(IDEAL_OBJECT, IDEAL_ACTION, IDEAL_TRACKER, seed=seed)
