"""The paper's metrics (§5.1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.eval.metrics import MatchReport, frame_overlap_report, match_sequences
from repro.utils.intervals import IntervalSet
from repro.video.model import VideoGeometry

GEO = VideoGeometry()


class TestMatchReport:
    def test_derived_metrics(self):
        report = MatchReport(true_positives=3, false_positives=1, false_negatives=2)
        assert report.precision == pytest.approx(0.75)
        assert report.recall == pytest.approx(0.6)
        assert report.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_empty_is_perfect(self):
        report = MatchReport(0, 0, 0)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0  # vacuous truth: nothing to find, nothing found

    def test_addition(self):
        total = MatchReport(1, 2, 3) + MatchReport(4, 5, 6)
        assert (total.true_positives, total.false_positives,
                total.false_negatives) == (5, 7, 9)


class TestSequenceMatching:
    def test_exact_match(self):
        truth = IntervalSet([(0, 5), (10, 15)])
        assert match_sequences(truth, truth).f1 == 1.0

    def test_iou_threshold(self):
        truth = IntervalSet([(0, 9)])
        found = IntervalSet([(0, 4)])  # IOU = 0.5 meets the default eta
        assert match_sequences(found, truth).f1 == 1.0
        barely_off = IntervalSet([(0, 3)])  # IOU = 0.4
        assert match_sequences(barely_off, truth).f1 == 0.0

    def test_one_truth_matches_one_result(self):
        truth = IntervalSet([(0, 10)])
        # non-adjacent fragments (adjacent ones would re-merge): one TP, one FP
        found = IntervalSet([(0, 4), (6, 10)])
        report = match_sequences(found, truth, iou_threshold=0.4)
        assert report.true_positives == 1
        assert report.false_positives == 1
        assert report.false_negatives == 0

    def test_miss_counts_false_negative(self):
        report = match_sequences(IntervalSet.empty(), IntervalSet([(0, 3)]))
        assert report.false_negatives == 1

    def test_invalid_threshold(self):
        with pytest.raises(EvaluationError):
            match_sequences(IntervalSet.empty(), IntervalSet.empty(), 0.0)

    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=6),
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_consistent(self, found_raw, truth_raw):
        found = IntervalSet([(min(a, b), max(a, b)) for a, b in found_raw])
        truth = IntervalSet([(min(a, b), max(a, b)) for a, b in truth_raw])
        report = match_sequences(found, truth)
        assert report.true_positives + report.false_positives == len(found)
        assert report.true_positives + report.false_negatives == len(truth)


class TestFrameLevelF1:
    def test_invariant_to_fragmentation(self):
        truth = IntervalSet([(0, 9)])
        whole = IntervalSet([(0, 9)])
        split = IntervalSet([(0, 4), (5, 9)])  # same clips, two sequences
        assert frame_overlap_report(whole, truth, GEO) == frame_overlap_report(
            split, truth, GEO
        )

    def test_partial_overlap(self):
        truth = IntervalSet([(0, 9)])
        found = IntervalSet([(5, 14)])
        f1 = frame_overlap_report(found, truth, GEO).f1
        assert f1 == pytest.approx(0.5)

