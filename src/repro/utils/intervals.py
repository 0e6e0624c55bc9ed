"""Inclusive integer interval algebra over clip (or frame) identifiers.

The paper represents every sequence — query results (Eq. 4), per-label
individual sequences (§4.2), and ground-truth annotations — as pairs
``(c_l, c_r)`` of *inclusive* start/end identifiers.  This module provides
that representation plus the operations the algorithms need:

* :func:`merge_positive` — Eq. 4: merge runs of positive clips into result
  sequences.
* :meth:`IntervalSet.intersect` — the paper's ``⊗`` operator (Eq. 12),
  one ``searchsorted`` sweep over the operands' endpoint columns.
* :meth:`IntervalSet.iou` — intersection-over-union between interval sets,
  the basis of the sequence-level F1 metric (§5.1).

All sets are kept *normalised*: sorted by start, pairwise disjoint, and with
no two intervals adjacent (``end + 1 == next.start`` is merged), so equality
of interval sets is structural equality.  A set is held as :class:`Interval`
objects, as ``(starts, ends)`` int64 columns, or both — each built from the
other on first use, so the offline path carries ``P_q`` as two arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import IntervalError


@dataclass(frozen=True, order=True)
class Interval:
    """A non-empty inclusive integer interval ``[start, end]``.

    ``Interval(3, 5)`` covers the identifiers ``{3, 4, 5}``.  Instances are
    immutable, hashable and ordered lexicographically by ``(start, end)``.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise IntervalError(
                f"interval end {self.end} precedes start {self.start}"
            )

    def __len__(self) -> int:
        return self.end - self.start + 1

    def __contains__(self, point: int) -> bool:
        return self.start <= point <= self.end

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.end + 1))

    def overlaps(self, other: "Interval") -> bool:
        """True if the two intervals share at least one identifier."""
        return self.start <= other.end and other.start <= self.end

    def adjacent(self, other: "Interval") -> bool:
        """True if the intervals touch end-to-end without overlapping."""
        return self.end + 1 == other.start or other.end + 1 == self.start

    def intersection(self, other: "Interval") -> "Interval | None":
        """The overlapping part of two intervals, or ``None`` if disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end < start:
            return None
        return Interval(start, end)

    def iou(self, other: "Interval") -> float:
        """Intersection-over-union of two intervals, counted in identifiers."""
        inter = self.intersection(other)
        if inter is None:
            return 0.0
        union = len(self) + len(other) - len(inter)
        return len(inter) / union

    def shift(self, offset: int) -> "Interval":
        """The interval translated by ``offset`` identifiers."""
        return Interval(self.start + offset, self.end + offset)

    def as_tuple(self) -> tuple[int, int]:
        return (self.start, self.end)


class IntervalSet:
    """A normalised set of disjoint, non-adjacent :class:`Interval` objects.

    The constructor accepts intervals in any order, possibly overlapping or
    adjacent; they are merged into canonical form.  The class behaves like a
    read-only sequence of intervals and supports set algebra.
    """

    __slots__ = ("_items", "_columns")

    def __init__(self, intervals: Iterable[Interval | tuple[int, int]] = ()) -> None:
        parsed = [
            iv if isinstance(iv, Interval) else Interval(iv[0], iv[1])
            for iv in intervals
        ]
        self._items: tuple[Interval, ...] | None = tuple(_normalise(parsed))
        self._columns: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_columns(
        cls, starts: np.ndarray, ends: np.ndarray, *, canonical: bool = False
    ) -> "IntervalSet":
        """The set of ``[starts[i], ends[i]]``: canonical columns (one
        vectorised comparison, skipped if the caller checked them and says
        ``canonical``) are adopted as they are, anything else goes through
        the constructor, which merges or refuses it."""
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        if not canonical and ((ends < starts).any() or (starts[1:] <= ends[:-1] + 1).any()):
            return cls(zip(starts.tolist(), ends.tolist()))
        adopted = cls.__new__(cls)
        adopted._items, adopted._columns = None, (starts, ends)
        return adopted

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The intervals as ``(starts, ends)`` int64 columns (read-only use)."""
        if self._columns is None:
            starts, ends = np.array(self.as_tuples(), dtype=np.int64).reshape(-1, 2).T.copy()
            self._columns = (starts, ends)
        return self._columns

    @property
    def _intervals(self) -> tuple[Interval, ...]:
        if self._items is None:
            starts, ends = self._columns  # type: ignore[misc]
            self._items = tuple(map(Interval, starts.tolist(), ends.tolist()))
        return self._items

    @classmethod
    def from_indicator(cls, flags: Sequence[bool | int], offset: int = 0) -> "IntervalSet":
        """Merge runs of truthy flags into intervals (Eq. 4).

        ``flags[i]`` refers to identifier ``offset + i``.  This is how
        positive clips are merged into result sequences.
        """
        edges = np.flatnonzero(np.diff(np.asarray([0, *map(bool, flags), 0], dtype=np.int8)))
        return cls.from_columns(edges[::2] + offset, edges[1::2] - 1 + offset, canonical=True)

    @classmethod
    def from_points(cls, points: Iterable[int]) -> "IntervalSet":
        """Build the set covering exactly the given identifiers (the
        constructor merges them into runs)."""
        return cls((point, point) for point in points)

    @classmethod
    def single(cls, start: int, end: int) -> "IntervalSet":
        return cls([Interval(start, end)])

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls()

    # -- sequence protocol -----------------------------------------------------

    def __len__(self) -> int:
        if self._items is None:
            return len(self._columns[0])  # type: ignore[index]
        return len(self._items)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __getitem__(self, index: int) -> Interval:
        return self._intervals[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        inner = ", ".join(f"[{iv.start},{iv.end}]" for iv in self._intervals)
        return f"IntervalSet({inner})"

    def __contains__(self, point: int) -> bool:
        """Membership by binary search over the sorted start column."""
        starts, ends = self.columns()
        i = int(np.searchsorted(starts, point, side="right")) - 1
        return i >= 0 and bool(point <= ends[i])

    # -- measures ---------------------------------------------------------------

    @property
    def total_length(self) -> int:
        """Number of identifiers covered by the set."""
        starts, ends = self.columns()
        return int((ends - starts).sum()) + len(starts)

    def points(self) -> Iterator[int]:
        """All covered identifiers in increasing order."""
        for iv in self._intervals:
            yield from iv

    def as_tuples(self) -> list[tuple[int, int]]:
        return [iv.as_tuple() for iv in self._intervals]

    def bounding(self) -> Interval | None:
        """Smallest single interval containing the whole set."""
        if not self._intervals:
            return None
        return Interval(self._intervals[0].start, self._intervals[-1].end)

    # -- set algebra -------------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet([*self._intervals, *other._intervals])

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """The paper's ``⊗`` operator (Eq. 12): clips present in both sets.

        Interval ``i`` of ``self`` meets the run ``first[i] .. first[i] +
        counts[i] - 1`` of ``other`` (two ``searchsorted``); the result is
        those pairs' overlaps, in order.  Consecutive overlaps are parted by
        a gap of one operand, so they never touch and the columns are
        canonical as they stand (``tests/reference/intervals.py`` keeps the
        two-pointer sweep this replaced, as the oracle).
        """
        a_start, a_end = self.columns()
        b_start, b_end = other.columns()
        first = np.searchsorted(b_end, a_start, side="left")
        counts = np.searchsorted(b_start, a_end, side="right") - first
        mine = np.repeat(np.arange(len(counts)), counts)
        theirs = np.arange(len(mine)) - np.repeat(
            np.cumsum(counts) - counts - first, counts
        )
        return IntervalSet.from_columns(
            np.maximum(a_start[mine], b_start[theirs]),
            np.minimum(a_end[mine], b_end[theirs]),
        )

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Identifiers covered by ``self`` but not by ``other``: ``self ⊗``
        the gaps of ``other`` (canonical, since its intervals neither touch
        nor overlap), the outermost two reaching past any identifier."""
        starts, ends = other.columns()
        far = np.iinfo(np.int64).max // 2
        gaps = IntervalSet.from_columns(
            np.concatenate(([-far], ends + 1)), np.concatenate((starts - 1, [far]))
        )
        return self.intersect(gaps)

    def complement(self, lo: int, hi: int) -> "IntervalSet":
        """Identifiers of ``[lo, hi]`` not covered by the set."""
        return IntervalSet.single(lo, hi).difference(self)

    # -- similarity ---------------------------------------------------------------

    def iou(self, other: "IntervalSet") -> float:
        """Intersection-over-union counted in identifiers across whole sets."""
        inter = self.intersect(other).total_length
        union = self.total_length + other.total_length - inter
        if union == 0:
            return 0.0
        return inter / union

    def clipped(self, lo: int, hi: int) -> "IntervalSet":
        """Restrict the set to ``[lo, hi]``."""
        return self.intersect(IntervalSet.single(lo, hi))


def _normalise(intervals: list[Interval]) -> list[Interval]:
    """Sort, then merge overlapping or adjacent intervals."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged = [ordered[0]]
    for iv in ordered[1:]:
        last = merged[-1]
        if iv.start <= last.end + 1:
            if iv.end > last.end:
                merged[-1] = Interval(last.start, iv.end)
        else:
            merged.append(iv)
    return merged


def merge_positive(flags: Sequence[bool | int], offset: int = 0) -> IntervalSet:
    """Module-level alias of :meth:`IntervalSet.from_indicator` (Eq. 4)."""
    return IntervalSet.from_indicator(flags, offset=offset)


def intersect_all(sets: Sequence[IntervalSet]) -> IntervalSet:
    """``P_a ⊗ P_o1 ⊗ … ⊗ P_oI`` (Eq. 12) over any number of operands, left
    to right: one columnar sweep an operand, whatever their sizes."""
    if not sets:
        raise IntervalError("intersect_all needs at least one interval set")
    return reduce(IntervalSet.intersect, sets)
