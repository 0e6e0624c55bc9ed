"""Interval algebra: the common currency of every sequence in the system."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import IntervalError
from repro.utils.intervals import (
    Interval,
    IntervalSet,
    intersect_all,
    merge_positive,
)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def intervals(max_id: int = 60) -> st.SearchStrategy[Interval]:
    return st.tuples(
        st.integers(0, max_id), st.integers(0, max_id)
    ).map(lambda t: Interval(min(t), max(t)))


def interval_sets(max_id: int = 60, max_size: int = 8) -> st.SearchStrategy[IntervalSet]:
    return st.lists(intervals(max_id), max_size=max_size).map(IntervalSet)


def point_set(spans: IntervalSet) -> set[int]:
    return set(spans.points())


# ---------------------------------------------------------------------------
# Interval basics
# ---------------------------------------------------------------------------

class TestInterval:
    def test_length_and_membership(self):
        iv = Interval(3, 5)
        assert len(iv) == 3
        assert list(iv) == [3, 4, 5]
        assert 3 in iv and 5 in iv and 6 not in iv

    def test_invalid_interval_rejected(self):
        with pytest.raises(IntervalError):
            Interval(5, 4)

    def test_single_point(self):
        iv = Interval(2, 2)
        assert len(iv) == 1
        assert iv.iou(Interval(2, 2)) == 1.0

    def test_overlap_and_adjacency(self):
        assert Interval(0, 3).overlaps(Interval(3, 5))
        assert not Interval(0, 2).overlaps(Interval(3, 5))
        assert Interval(0, 2).adjacent(Interval(3, 5))
        assert not Interval(0, 3).adjacent(Interval(3, 5))

    def test_intersection(self):
        assert Interval(0, 5).intersection(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 2).intersection(Interval(4, 6)) is None

    def test_iou_known_value(self):
        # overlap 2 ids of union 8 ids
        assert Interval(0, 4).iou(Interval(3, 7)) == pytest.approx(2 / 8)

    def test_shift(self):
        assert Interval(2, 4).shift(10) == Interval(12, 14)

    @given(intervals(), intervals())
    def test_iou_symmetric_and_bounded(self, a, b):
        assert a.iou(b) == pytest.approx(b.iou(a))
        assert 0.0 <= a.iou(b) <= 1.0

    @given(intervals())
    def test_iou_self_is_one(self, a):
        assert a.iou(a) == 1.0


# ---------------------------------------------------------------------------
# IntervalSet normalisation
# ---------------------------------------------------------------------------

class TestNormalisation:
    def test_merges_overlapping(self):
        s = IntervalSet([(0, 5), (3, 8)])
        assert s.as_tuples() == [(0, 8)]

    def test_merges_adjacent(self):
        s = IntervalSet([(0, 2), (3, 5)])
        assert s.as_tuples() == [(0, 5)]

    def test_keeps_gaps(self):
        s = IntervalSet([(0, 2), (4, 5)])
        assert s.as_tuples() == [(0, 2), (4, 5)]

    def test_accepts_tuples_and_intervals(self):
        assert IntervalSet([(1, 2)]) == IntervalSet([Interval(1, 2)])

    def test_sorts_input(self):
        s = IntervalSet([(8, 9), (0, 1)])
        assert s.as_tuples() == [(0, 1), (8, 9)]

    @given(st.lists(intervals(), max_size=10))
    def test_normal_form_is_canonical(self, ivs):
        s = IntervalSet(ivs)
        ordered = list(s)
        for left, right in zip(ordered, ordered[1:]):
            assert left.end + 1 < right.start  # disjoint and non-adjacent

    @given(st.lists(intervals(), max_size=10))
    def test_covers_exactly_input_points(self, ivs):
        s = IntervalSet(ivs)
        expected = {p for iv in ivs for p in iv}
        assert point_set(s) == expected
        assert s.total_length == len(expected)


# ---------------------------------------------------------------------------
# set algebra vs point-set semantics (the ground truth of correctness)
# ---------------------------------------------------------------------------

class TestAlgebra:
    @given(interval_sets(), interval_sets())
    def test_union_matches_points(self, a, b):
        assert point_set(a.union(b)) == point_set(a) | point_set(b)

    @given(interval_sets(), interval_sets())
    def test_intersect_matches_points(self, a, b):
        assert point_set(a.intersect(b)) == point_set(a) & point_set(b)

    @given(interval_sets(), interval_sets())
    def test_difference_matches_points(self, a, b):
        assert point_set(a.difference(b)) == point_set(a) - point_set(b)

    @given(interval_sets())
    def test_complement_partitions(self, a):
        lo, hi = 0, 80
        comp = a.complement(lo, hi)
        clipped = a.clipped(lo, hi)
        assert point_set(comp) | point_set(clipped) == set(range(lo, hi + 1))
        assert point_set(comp) & point_set(clipped) == set()

    @given(interval_sets(), interval_sets(), interval_sets())
    def test_intersect_all_associative(self, a, b, c):
        expected = point_set(a) & point_set(b) & point_set(c)
        assert point_set(intersect_all([a, b, c])) == expected

    def test_intersect_all_requires_operands(self):
        with pytest.raises(IntervalError):
            intersect_all([])

    @given(interval_sets())
    def test_membership_binary_search(self, a):
        pts = point_set(a)
        for probe in range(0, 62):
            assert (probe in a) == (probe in pts)

    @given(interval_sets())
    def test_membership_past_either_end(self, a):
        for probe in (-3, -1, 61, 200):
            assert (probe in a) == (probe in point_set(a))


# ---------------------------------------------------------------------------
# Eq. 4: merging positive indicators
# ---------------------------------------------------------------------------

class TestMergePositive:
    def test_basic_runs(self):
        flags = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1]
        assert merge_positive(flags).as_tuples() == [(1, 2), (4, 4), (7, 9)]

    def test_offset(self):
        assert merge_positive([1, 1], offset=5).as_tuples() == [(5, 6)]

    def test_all_negative(self):
        assert merge_positive([0, 0, 0]) == IntervalSet.empty()

    def test_all_positive(self):
        assert merge_positive([1] * 4).as_tuples() == [(0, 3)]

    @given(st.lists(st.booleans(), max_size=50))
    def test_roundtrip_with_membership(self, flags):
        merged = merge_positive(flags)
        for i, flag in enumerate(flags):
            assert (i in merged) == bool(flag)

    @given(st.lists(st.booleans(), max_size=50), st.integers(-5, 5))
    def test_runs_are_the_positive_points_in_canonical_form(self, flags, offset):
        merged = merge_positive(flags, offset=offset)
        assert point_set(merged) == {offset + i for i, flag in enumerate(flags) if flag}
        assert merged == IntervalSet(merged.as_tuples())


# ---------------------------------------------------------------------------
# IOU over whole sets
# ---------------------------------------------------------------------------

class TestSetIou:
    @given(interval_sets(), interval_sets())
    def test_bounded_and_symmetric(self, a, b):
        assert 0.0 <= a.iou(b) <= 1.0
        assert a.iou(b) == pytest.approx(b.iou(a))

    @given(interval_sets())
    def test_identity(self, a):
        if a:
            assert a.iou(a) == 1.0
        else:
            assert a.iou(a) == 0.0

    def test_from_points(self):
        s = IntervalSet.from_points([5, 1, 2, 3, 9])
        assert s.as_tuples() == [(1, 3), (5, 5), (9, 9)]

    @given(st.lists(st.integers(-3, 40), max_size=30))
    def test_from_points_covers_exactly_the_points(self, points):
        s = IntervalSet.from_points(points)
        assert point_set(s) == set(points)
        assert s == IntervalSet(s.as_tuples())

    def test_bounding(self):
        assert IntervalSet([(2, 3), (8, 9)]).bounding() == Interval(2, 9)
        assert IntervalSet.empty().bounding() is None
