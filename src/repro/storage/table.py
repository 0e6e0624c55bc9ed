"""Clip score tables (§4.2): ``table_o / table_a : {cid, Score}``.

One table per label per ingested scope, with rows **ordered by score
descending** — the layout TBClip's parallel sorted access requires.  Three
access paths, each metered:

* ``sorted_row(i)`` — the i-th best row (sequential scan from the top);
* ``reverse_row(i)`` — the i-th worst row (sequential scan from the bottom);
* ``random_access(cid)`` — the score of a specific clip (a seek).

The bulk companions (``sorted_block`` / ``reverse_block`` /
``by_cid_columns``) expose the same rows as NumPy columns *without*
charging the meter: they are prefetch primitives for consumers (TBClip)
that account each row at the moment the serial algorithm would consume
it, so vectorised execution keeps the exact access counts of the
row-at-a-time path.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import StorageError
from repro.storage.access import AccessStats


class ClipScoreTable:
    """Immutable score-sorted table of ``(clip_id, score)`` rows."""

    __slots__ = ("_cids", "_scores", "_cids_by_cid", "_scores_by_cid", "label")

    def __init__(self, label: str, rows: Iterable[tuple[int, float]]) -> None:
        pairs = list(rows)
        cids, scores = zip(*pairs) if pairs else ((), ())
        self._init_from_columns(label, *_score_ordered(cids, scores))

    def _init_from_columns(
        self, label: str, cids: np.ndarray, scores: np.ndarray
    ) -> None:
        """Adopt already score-sorted columns (the trusted fast path)."""
        self.label = label
        self._cids = cids
        self._scores = scores
        by_cid = np.argsort(cids, kind="stable")
        self._cids_by_cid = cids[by_cid]
        self._scores_by_cid = scores[by_cid]
        if len(cids) > 1 and (self._cids_by_cid[1:] == self._cids_by_cid[:-1]).any():
            raise StorageError(f"duplicate clip ids in table {label!r}")

    @classmethod
    def from_columns(
        cls, label: str, cids: np.ndarray, scores: np.ndarray
    ) -> "ClipScoreTable":
        """Build from aligned ``(cids, scores)`` columns in any order —
        what the row constructor does, without the rows."""
        table = cls.__new__(cls)
        table._init_from_columns(label, *_score_ordered(cids, scores))
        return table

    @classmethod
    def _adopt_columns(
        cls,
        label: str,
        cids: np.ndarray,
        scores: np.ndarray,
        cids_by_cid: np.ndarray,
        scores_by_cid: np.ndarray,
    ) -> "ClipScoreTable":
        """Adopt all four columns as they are: no sort, no check, no copy.

        The load path of the format-3 arena, whose by-cid permutation was
        computed at save time: opening a table is four plain read-only
        views of the mapped file, O(1) in the number of clips.  Callers
        pass columns :meth:`export_columns` produced; nothing is re-checked.
        """
        table = cls.__new__(cls)
        table.label = label
        table._cids = cids
        table._scores = scores
        table._cids_by_cid = cids_by_cid
        table._scores_by_cid = scores_by_cid
        return table

    # -- metadata ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cids)

    def __contains__(self, cid: int) -> bool:
        pos = np.searchsorted(self._cids_by_cid, cid)
        return pos < len(self._cids_by_cid) and self._cids_by_cid[pos] == cid

    # -- metered access paths ------------------------------------------------------

    def sorted_row(self, index: int, stats: AccessStats | None = None) -> tuple[int, float]:
        """The ``index``-th row from the top (0-based; highest score first)."""
        if not 0 <= index < len(self):
            raise StorageError(
                f"sorted access past table end: row {index} of {len(self)} "
                f"in table {self.label!r}"
            )
        if stats is not None:
            stats.charge_sorted()
        return int(self._cids[index]), float(self._scores[index])

    def reverse_row(self, index: int, stats: AccessStats | None = None) -> tuple[int, float]:
        """The ``index``-th row from the bottom (0-based; lowest score first)."""
        if not 0 <= index < len(self):
            raise StorageError(
                f"reverse access past table end: row {index} of {len(self)} "
                f"in table {self.label!r}"
            )
        if stats is not None:
            stats.charge_reverse()
        pos = len(self) - 1 - index
        return int(self._cids[pos]), float(self._scores[pos])

    def random_access(self, cid: int, stats: AccessStats | None = None) -> float:
        """The score of clip ``cid`` (a random I/O)."""
        pos = int(np.searchsorted(self._cids_by_cid, cid))
        if pos >= len(self._cids_by_cid) or self._cids_by_cid[pos] != cid:
            raise StorageError(f"clip {cid} not in table {self.label!r}")
        if stats is not None:
            stats.charge_random()
        return float(self._scores_by_cid[pos])

    # -- bulk (prefetch) access paths ----------------------------------------------

    def sorted_block(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``start..stop-1`` from the top as ``(cids, scores)`` columns.

        Uncharged prefetch: the caller meters each row as it is consumed
        (see module docs).
        """
        if not 0 <= start <= stop <= len(self):
            raise StorageError(
                f"sorted block [{start}, {stop}) outside table "
                f"{self.label!r} of {len(self)} rows"
            )
        return self._cids[start:stop], self._scores[start:stop]

    def reverse_block(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``start..stop-1`` from the bottom as ``(cids, scores)``
        columns; element ``i`` equals ``reverse_row(start + i)``."""
        if not 0 <= start <= stop <= len(self):
            raise StorageError(
                f"reverse block [{start}, {stop}) outside table "
                f"{self.label!r} of {len(self)} rows"
            )
        n = len(self)
        return (
            self._cids[n - stop : n - start][::-1],
            self._scores[n - stop : n - start][::-1],
        )

    def by_cid_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row as ``(cids, scores)`` columns in ascending clip-id
        order — the uncharged prefetch behind bulk random-access completion
        (the caller meters each clip it consumes)."""
        return self._cids_by_cid, self._scores_by_cid

    # -- offline maintenance ----------------------------------------------------------

    def export_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All four internal columns ``(cids, scores, cids_by_cid,
        scores_by_cid)`` — the format-3 persistence export, which pays the
        by-cid sort once at save time so :meth:`_adopt_columns` can open
        the table without touching a single data page."""
        return self._cids, self._scores, self._cids_by_cid, self._scores_by_cid

    def shifted(self, offset: int) -> "ClipScoreTable":
        """A copy with all clip ids translated by ``offset`` — how the
        repository maps per-video tables into the global clip-id space.

        Shifting cannot change score order, so the sorted columns are
        reused as-is instead of rebuilding and re-sorting the table.
        """
        return ClipScoreTable._adopt_columns(
            self.label, self._cids + offset, self._scores,
            self._cids_by_cid + offset, self._scores_by_cid,
        )

    @staticmethod
    def merged(label: str, tables: Iterable["ClipScoreTable"]) -> "ClipScoreTable":
        """Merge disjoint-cid tables into one (repository-level tables).

        Tables handed over in ascending clip-id order — per-video tables
        shifted into the global id space are — concatenate into the by-cid
        columns as they stand, and table order is one stable sort of their
        score-ordered rows: a merge of sorted runs, ties staying in part
        order, that is by ascending clip id.  Any other input is sorted,
        and checked for duplicates, from scratch."""
        parts = list(tables)
        if not parts:
            return ClipScoreTable(label, [])
        cids = np.concatenate([t._cids for t in parts])
        scores = np.concatenate([t._scores for t in parts])
        by_cid = np.concatenate([t._cids_by_cid for t in parts])
        if not (by_cid[1:] > by_cid[:-1]).all():
            return ClipScoreTable.from_columns(label, cids, scores)
        order = np.argsort(-scores, kind="stable")
        return ClipScoreTable._adopt_columns(
            label, cids[order], scores[order], by_cid,
            np.concatenate([t._scores_by_cid for t in parts]),
        )


def _score_ordered(
    cids: Sequence[int], scores: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """The columns in table order: descending score, ties by ascending clip
    id so table layout is deterministic."""
    cids = np.asarray(cids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((cids, -scores))
    return cids[order], scores[order]
