"""The two-pointer ``⊗`` sweep (Eq. 12) that ``IntervalSet.intersect`` ran
before it moved to endpoint columns — kept as the oracle the columnar
sweep is compared against."""

from __future__ import annotations

from repro.utils.intervals import Interval, IntervalSet


def intersect_sweep(left: IntervalSet, right: IntervalSet) -> IntervalSet:
    """Clips present in both sets: a linear sweep over the two sorted
    interval lists, re-normalised by the constructor."""
    result: list[Interval] = []
    i = j = 0
    a, b = list(left), list(right)
    while i < len(a) and j < len(b):
        inter = a[i].intersection(b[j])
        if inter is not None:
            result.append(inter)
        if a[i].end < b[j].end:
            i += 1
        else:
            j += 1
    return IntervalSet(result)
