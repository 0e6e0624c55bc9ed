"""TBClip — the top/bottom clip iterator (Algorithm 5).

Each invocation returns the unprocessed clip of ``P_q`` with the highest
overall score (``c_top``) and the one with the lowest (``c_btm``), found by

1. *parallel sorted access*: one row per query table per round from the top
   (and, mirrored, from the bottom) until the best seen candidate provably
   dominates everything unseen;
2. *random accesses* completing the scores of newly seen clips, combined
   with the clip score function ``g``.

Differences from the paper's listing, both conservative:

* scores fetched by random access are memoised, so each (table, clip) pair
  is charged exactly one random access however many iterations look at it;
* the classic threshold guarantee of TA-style algorithms is enforced — a
  candidate is only returned as ``c_top`` once its score is at least the
  frontier bound ``g`` applied to the last sorted-access row of every
  table (every clip unseen in *all* tables scores below that bound), so
  the returned order is exactly score-descending, mirrored for ``c_btm``.
  Without this, a clip ranked high in one table but unseen in another
  could be returned out of order and silently corrupt RVAQ's bounds.

Clips flagged in the caller's ``skip`` column (RVAQ's ``C_skip``: one byte
per global clip id, non-zero = skipped) are passed over during sorted
access and never randomly accessed; clips skipped *after* they were scored
are discarded lazily from the candidate heaps.

Execution strategy (DESIGN.md, "Offline top-K pipeline"): per-clip state is
indexed by clip id — ``bytearray`` marks as long as the skip column, every
clip's score under ``g`` from one :meth:`ScoringScheme.clip_score_block`
pass — and each direction's rows and per-round bounds are prefetched as
plain lists.  The meter is charged when the row-at-a-time algorithm would
charge it (``len(tables)`` sequential accesses a round, ``len(tables)``
random accesses the first time a clip is seen unskipped in either
direction), so accounting and every returned pair are bit-identical to
``ReferenceTBClipIterator`` in ``tests/reference/rvaq.py``.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.scoring import ScoringScheme
from repro.errors import ConfigurationError, StorageError
from repro.storage.access import AccessStats
from repro.storage.table import ClipScoreTable

#: One drained pair: ``(c_top, S_top, c_btm, S_btm)``.
Pair = tuple[int | None, float, int | None, float]


class _Direction:
    """One walk's state: the top (sorted access) or bottom (reverse access)
    direction of the parallel scan."""

    __slots__ = ("top", "stamp", "seen", "heap", "cids", "bound")

    def __init__(self, top: bool, span: int) -> None:
        self.top = top
        self.stamp = 0  # rounds consumed so far
        self.seen = bytearray(span)
        self.heap: list[tuple[float, int]] = []  # (-score, cid) / (score, cid)
        # Prefetched on the first round: one list of clip ids per table in
        # access order, and what a heap key has to be at most to be returned
        # after ``stamp`` rounds.
        self.cids: list[list[int]] = []
        self.bound: list[float] = []


class TBClipIterator:
    """Iterator over the clips of ``P_q`` in score order from both ends."""

    def __init__(
        self,
        action_table: ClipScoreTable,
        object_tables: list[ClipScoreTable],
        scoring: ScoringScheme,
        skip: bytearray,
        stats: AccessStats,
        bottom_rounds_per_call: int = 8,
        need_bottom: bool = True,
    ) -> None:
        """``skip`` is the caller's ``C_skip`` flag column: one byte per
        clip id, non-zero where the clip is skipped, long enough to index
        by every clip id in the tables.  It is held by reference — RVAQ
        grows it while iterating.

        ``bottom_rounds_per_call`` bounds the reverse-access work per
        invocation: the bottom of the tables is dominated by skipped
        (non-``P_q``) clips whose rows keep the reverse frontier too low to
        certify any candidate, so an unbounded walk would stream — and
        eagerly random-access — far ahead of what the caller's bounds
        need.  When the budget runs out before a candidate qualifies, the
        call reports ``c_btm = None`` for this round and resumes next call;
        RVAQ's Eq. 14 refinement simply skips that round.

        ``need_bottom=False`` disables the bottom direction entirely: when
        every sequence is already known to be in the answer (K >= |P_q|),
        lower bounds are only needed for exactness, which the top drain
        provides by itself — the reverse walk would be pure overhead."""
        self._tables: list[ClipScoreTable] = [action_table, *object_tables]
        #: Rounds available per direction — tables are immutable, so the
        #: shortest table's length is fixed for the iterator's lifetime.
        self._n = min(len(t) for t in self._tables)
        self._scoring = scoring
        self._skip = skip
        self._stats = stats
        self._bottom_budget = max(1, bottom_rounds_per_call)
        self._need_bottom = need_bottom

        span = len(skip)
        self._top = _Direction(True, span)
        self._btm = _Direction(False, span)
        #: Clips whose random accesses have been charged (either direction).
        self._scored = bytearray(span)
        #: Score of every clip under ``g`` by clip id, and a flag where some
        #: table lacks the clip; built on first use.
        self._scores: list[float] = []
        self._incomplete = bytearray()

    # -- public API ------------------------------------------------------------

    def next_pair(self) -> Pair:
        """``(c_top, S_top, c_btm, S_btm)``; a ``None`` clip id means that
        direction is exhausted (every non-skipped clip already returned)."""
        c_top, s_top = self._next_extreme(self._top)
        if self._need_bottom:
            c_btm, s_btm = self._next_extreme(self._btm)
        else:
            c_btm, s_btm = None, 0.0
        return c_top, s_top, c_btm, s_btm

    def drained(self, pair: Pair) -> bool:
        """Whether ``pair`` is the exhaustion marker: no clip in either
        direction *and* nothing left to return — every clip of ``P_q`` is
        processed and the caller's bounds are exact.  (A pair can also
        come back empty because the bottom budget stalled.)"""
        if pair[0] is not None or pair[2] is not None:
            return False
        # Every active direction has read its last round; a returned clip
        # left the heap when it was returned, so what is still there is
        # either skipped or yet to come.
        return all(
            walk.stamp >= self._n and all(self._skip[cid] for _, cid in walk.heap)
            for walk in ((self._top, self._btm) if self._need_bottom else (self._top,))
        )

    # -- internals ----------------------------------------------------------------

    def _materialise(self, walk: _Direction) -> None:
        """Prefetch one direction's row columns and precompute its whole
        frontier-bound column with one vectorised ``g`` pass."""
        if not self._scores:
            self._materialise_scores()
        n = self._n
        cid_cols, score_cols = [], []
        for table in self._tables:
            cids, scores = (
                table.sorted_block(0, n) if walk.top else table.reverse_block(0, n)
            )
            cid_cols.append(cids.tolist())
            score_cols.append(scores)
        # ``g`` of the most recent round's rows bounds the score of any clip
        # not yet seen in every table, monotonically; heap keys are negated
        # scores on the top walk, so its bound is negated too.  Before any
        # round nothing is returned; once the tables are exhausted all is.
        frontier = self._scoring.clip_score_block(score_cols[0], score_cols[1:])
        bound = np.concatenate(([-np.inf], -frontier if walk.top else frontier))
        bound[n] = np.inf
        walk.bound = bound.tolist()
        walk.cids = cid_cols

    def _materialise_scores(self) -> None:
        """Score every clip under ``g`` in one vectorised pass over the
        tables' by-cid columns, scattered into a column indexed by clip id.
        Clips some table lacks are flagged, so the walk fails on them
        exactly where a random access would have."""
        span = len(self._skip)
        present = np.zeros(span, dtype=np.intp)
        columns = []
        for table in self._tables:
            cids, scores = table.by_cid_columns()
            if len(cids) and not 0 <= cids[0] <= cids[-1] < span:
                raise ConfigurationError(
                    f"table {table.label!r} holds clip ids outside the skip "
                    f"column's span [0, {span})"
                )
            present[cids] += 1
            column = np.zeros(span, dtype=np.float64)
            column[cids] = scores
            columns.append(column)
        complete = present == len(self._tables)
        scored = np.flatnonzero(complete)
        dense = np.zeros(span, dtype=np.float64)
        dense[scored] = self._scoring.clip_score_block(
            columns[0][scored], [column[scored] for column in columns[1:]]
        )
        self._scores = dense.tolist()
        self._incomplete = bytearray((~complete).tobytes())

    def _absent(self, cid: int) -> StorageError:
        """The failure a random access of ``cid`` runs into: the tables
        consulted before the one lacking the clip are charged, it is not."""
        consulted = 0
        while cid in self._tables[consulted]:
            consulted += 1
        self._stats.charge_random(consulted)
        return StorageError(
            f"clip {cid} not in table {self._tables[consulted].label!r}"
        )

    def _next_extreme(self, walk: _Direction) -> tuple[int | None, float]:
        top = walk.top
        heap, seen = walk.heap, walk.seen
        skip, scored, stats = self._skip, self._scored, self._stats
        n_tables = len(self._tables)
        push, pop = heapq.heappush, heapq.heappop
        start = stamp = walk.stamp
        # Rounds this invocation may reach: the tables' end, or — the bottom
        # walk resumes next invocation — the budget.
        limit = self._n if top else min(self._n, start + self._bottom_budget)
        if stamp < limit and not walk.cids:
            self._materialise(walk)
        bound, cols = walk.bound, walk.cids
        scores, incomplete = self._scores, self._incomplete
        try:
            while True:
                while heap:
                    key, cid = heap[0]
                    if skip[cid]:
                        pop(heap)  # skipped after it was scored
                    elif key <= bound[stamp]:
                        pop(heap)
                        return cid, -key if top else key
                    else:
                        break
                if stamp >= limit:
                    return None, 0.0
                # One round of parallel sorted (or reverse) access.
                for col in cols:
                    cid = col[stamp]
                    if seen[cid]:
                        continue
                    seen[cid] = 1
                    if skip[cid]:
                        # Accessed once during sorted access, then excluded
                        # from all further (random-access) processing — §4.3.
                        continue
                    if not scored[cid]:
                        # Completing the score costs one random access per
                        # table, memoised across both directions.
                        if incomplete[cid]:
                            raise self._absent(cid)
                        scored[cid] = 1
                        stats.random_accesses += n_tables
                    push(heap, (-scores[cid], cid) if top else (scores[cid], cid))
                stamp += 1
        finally:
            # Every completed round cost one row per table.
            walk.stamp = stamp
            if top:
                stats.sorted_accesses += n_tables * (stamp - start)
            else:
                stats.reverse_accesses += n_tables * (stamp - start)
