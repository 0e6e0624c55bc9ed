"""Interval oracles: the two-pointer ``⊗`` sweep (Eq. 12) that
``IntervalSet.intersect`` ran before it moved to endpoint columns, kept as
the oracle the columnar sweep is compared against; Eq. 4's batch merge of
an indicator sequence, the oracle of the streaming assembler; and the
intersection-over-union of two sets, for comparing runs."""

from __future__ import annotations

from typing import Sequence

import numpy as np

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


def from_indicator(flags: Sequence[bool | int], offset: int = 0) -> IntervalSet:
    """Merge runs of truthy flags into intervals (Eq. 4).

    ``flags[i]`` refers to identifier ``offset + i``.  This is how
    positive clips are merged into result sequences.
    """
    edges = np.flatnonzero(np.diff(np.asarray([0, *map(bool, flags), 0], dtype=np.int8)))
    return IntervalSet.from_columns(edges[::2] + offset, edges[1::2] - 1 + offset, canonical=True)


def set_iou(left: IntervalSet, right: IntervalSet) -> float:
    """Intersection-over-union counted in identifiers across whole sets."""
    inter = left.intersect(right).total_length
    union = left.total_length + right.total_length - inter
    if union == 0:
        return 0.0
    return inter / union
