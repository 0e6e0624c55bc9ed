"""The paper's evaluation metrics (§5.1).

* **Sequence-level F1**: a returned sequence matches a ground-truth
  sequence when their clip-IOU exceeds ``η = 0.5``; matched returns are
  true positives, unmatched returns false positives, unmatched ground-truth
  sequences false negatives.
* **Frame-level counts**: precision/recall over the *frames* covered by
  the returned vs ground-truth sequences (Figure 5's metric, insensitive to
  how clip size fragments sequences).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.utils.intervals import IntervalSet
from repro.video.model import VideoGeometry

#: The IOU threshold for sequence matching used throughout the paper.
DEFAULT_IOU_THRESHOLD = 0.5


@dataclass(frozen=True)
class MatchReport:
    """Counts from greedy IOU matching plus the derived P/R/F1."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 1.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0

    def __add__(self, other: "MatchReport") -> "MatchReport":
        return MatchReport(
            self.true_positives + other.true_positives,
            self.false_positives + other.false_positives,
            self.false_negatives + other.false_negatives,
        )


def match_sequences(
    found: IntervalSet,
    truth: IntervalSet,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> MatchReport:
    """Greedy one-to-one IOU matching of result sequences to ground truth.

    A found sequence is a true positive iff its IOU with *some* unmatched
    ground-truth sequence exceeds the threshold (each ground-truth sequence
    can satisfy only one result); a ground-truth sequence missed by every
    result is a false negative — the protocol of §5.1.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise EvaluationError(f"iou threshold must be in (0, 1]; got {iou_threshold}")
    matched_truth: set[int] = set()
    tp = 0
    for found_iv in found:
        best_j, best_iou = -1, 0.0
        for j, truth_iv in enumerate(truth):
            if j in matched_truth:
                continue
            iou = found_iv.iou(truth_iv)
            if iou > best_iou:
                best_j, best_iou = j, iou
        if best_j >= 0 and best_iou >= iou_threshold:
            matched_truth.add(best_j)
            tp += 1
    return MatchReport(
        true_positives=tp,
        false_positives=len(found) - tp,
        false_negatives=len(truth) - len(matched_truth),
    )


def frame_overlap_report(
    found_clips: IntervalSet,
    truth_clips: IntervalSet,
    geometry: VideoGeometry,
) -> MatchReport:
    """Frame-level counts: expand clip sequences to frames and compare."""
    found_frames = geometry.clip_set_to_frames(found_clips)
    truth_frames = geometry.clip_set_to_frames(truth_clips)
    inter = found_frames.intersect(truth_frames).total_length
    return MatchReport(
        true_positives=inter,
        false_positives=found_frames.total_length - inter,
        false_negatives=truth_frames.total_length - inter,
    )

