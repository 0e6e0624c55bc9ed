"""Reference (pre-vectorisation) implementation of RVAQ + TBClip.

This module preserves the original row-at-a-time, pure-Python execution of
Algorithms 4–5 exactly as it stood before the offline top-K path was
vectorised.  It exists for two reasons:

* **Equivalence oracle** — the optimised :class:`repro.core.rvaq.RVAQ`
  must produce bit-identical ranked tuples, ``AccessStats`` and
  ``iterations`` in serial mode; the test suite checks that against this
  implementation on randomized repositories.
* **Benchmark baseline** — ``benchmarks/bench_offline_topk.py`` measures
  the speedup of the vectorised path against this one and records the
  trajectory in ``BENCH_offline_topk.json``.

It is intentionally *not* maintained for speed, and it does not ship: it
lives under ``tests/reference/`` with the other oracles.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import AbstractSet, Any

from repro.core.config import RankingConfig
from repro.core.query import Query
from repro.core.rvaq import RankedSequence, TopKResult
from repro.core.scoring import PaperScoring, ScoringScheme
from repro.errors import QueryError
from repro.storage.access import AccessStats
from repro.storage.repository import VideoRepository
from repro.storage.table import ClipScoreTable
from repro.utils.intervals import IntervalSet, intersect_all


class ReferenceTBClipIterator:
    """The original row-at-a-time TBClip (Algorithm 5)."""

    def __init__(
        self,
        action_table: ClipScoreTable,
        object_tables: list[ClipScoreTable],
        scoring: ScoringScheme,
        skip: AbstractSet[int],
        stats: AccessStats,
        bottom_rounds_per_call: int = 8,
        need_bottom: bool = True,
    ) -> None:
        self._tables: list[ClipScoreTable] = [action_table, *object_tables]
        self._action_table = action_table
        self._object_tables = object_tables
        self._scoring = scoring
        self._skip = skip  # live reference — RVAQ grows it while iterating
        self._stats = stats
        self._bottom_budget = max(1, bottom_rounds_per_call)
        self._need_bottom = need_bottom

        self._stamp_top = 0
        self._stamp_btm = 0
        self._seen_top: set[int] = set()
        self._seen_btm: set[int] = set()
        self._processed_top: set[int] = set()
        self._processed_btm: set[int] = set()
        self._heap_top: list[tuple[float, int]] = []  # (-score, cid)
        self._heap_btm: list[tuple[float, int]] = []  # (score, cid)
        self._frontier_rows_top: list[float] | None = None
        self._frontier_rows_btm: list[float] | None = None
        self._score_cache: dict[int, float] = {}

    def next_pair(self) -> tuple[int | None, float, int | None, float]:
        c_top, s_top = self._next_extreme(top=True)
        if self._need_bottom:
            c_btm, s_btm = self._next_extreme(top=False)
        else:
            c_btm, s_btm = None, 0.0
        if c_top is not None:
            self._processed_top.add(c_top)
        if c_btm is not None:
            self._processed_btm.add(c_btm)
        return c_top, s_top, c_btm, s_btm

    @property
    def exhausted(self) -> bool:
        if not self._direction_done(True):
            return False
        return not self._need_bottom or self._direction_done(False)

    def _table_len(self) -> int:
        return min(len(t) for t in self._tables)

    def _heap(self, top: bool) -> list[tuple[float, int]]:
        return self._heap_top if top else self._heap_btm

    def _clean_heap(self, top: bool) -> tuple[float, int] | None:
        heap = self._heap(top)
        processed = self._processed_top if top else self._processed_btm
        while heap:
            _, cid = heap[0]
            if cid in processed or cid in self._skip:
                heapq.heappop(heap)
                continue
            return heap[0]
        return None

    def _direction_done(self, top: bool) -> bool:
        stamp = self._stamp_top if top else self._stamp_btm
        if stamp < self._table_len():
            return False
        return self._clean_heap(top) is None

    def _frontier_bound(self, top: bool) -> float:
        rows = self._frontier_rows_top if top else self._frontier_rows_btm
        if rows is None:
            return float("inf") if top else float("-inf")
        return self._scoring.clip_score(rows[0], rows[1:])

    def _advance(self, top: bool) -> bool:
        stamp = self._stamp_top if top else self._stamp_btm
        if stamp >= self._table_len():
            return False
        seen = self._seen_top if top else self._seen_btm
        heap = self._heap(top)
        frontier_rows: list[float] = []
        for table in self._tables:
            if top:
                cid, score = table.sorted_row(stamp, self._stats)
            else:
                cid, score = table.reverse_row(stamp, self._stats)
            frontier_rows.append(score)
            if cid in seen:
                continue
            seen.add(cid)
            if cid in self._skip:
                continue
            full = self._full_score(cid)
            heapq.heappush(heap, ((-full, cid) if top else (full, cid)))
        if top:
            self._stamp_top += 1
            self._frontier_rows_top = frontier_rows
        else:
            self._stamp_btm += 1
            self._frontier_rows_btm = frontier_rows
        return True

    def _full_score(self, cid: int) -> float:
        cached = self._score_cache.get(cid)
        if cached is not None:
            return cached
        action_score = self._action_table.random_access(cid, self._stats)
        object_scores = [
            t.random_access(cid, self._stats) for t in self._object_tables
        ]
        score = self._scoring.clip_score(action_score, object_scores)
        self._score_cache[cid] = score
        return score

    def _next_extreme(self, top: bool) -> tuple[int | None, float]:
        heap = self._heap(top)
        rounds = 0
        while True:
            head = self._clean_heap(top)
            if head is not None:
                key, cid = head
                score = -key if top else key
                frontier = self._frontier_bound(top)
                beats = score >= frontier if top else score <= frontier
                if beats or self._stamp_at_end(top):
                    heapq.heappop(heap)
                    return cid, score
            if not top and rounds >= self._bottom_budget:
                return None, 0.0
            if not self._advance(top):
                head = self._clean_heap(top)
                if head is not None:
                    key, cid = heapq.heappop(heap)
                    return cid, (-key if top else key)
                return None, 0.0
            rounds += 1

    def _stamp_at_end(self, top: bool) -> bool:
        stamp = self._stamp_top if top else self._stamp_btm
        return stamp >= self._table_len()


@dataclass
class _SequenceState:
    interval: object
    up_partial: float
    lo_partial: float
    up_missing: int
    lo_missing: int
    upper: float = float("inf")
    lower: float = float("-inf")
    decided_in: bool = False
    decided_out: bool = False


class ReferenceRVAQ:
    """The original Algorithm 4 loop (full per-pair refresh + re-sort)."""

    def __init__(
        self,
        repository: VideoRepository,
        scoring: ScoringScheme | None = None,
        config: RankingConfig | None = None,
        *,
        enable_skip: bool = True,
    ) -> None:
        self._repo = repository
        self._scoring = scoring or PaperScoring()
        self._config = config or RankingConfig()
        self._enable_skip = enable_skip

    @staticmethod
    def _split_labels(query: Query) -> tuple[str, list[str]]:
        if not query.actions:
            raise QueryError("RVAQ expects at least one action predicate")
        primary, *extra = query.actions
        return primary, [*extra, *query.objects, *query.relationships]

    def result_sequences(self, query: Query) -> IntervalSet:
        primary, others = self._split_labels(query)
        sets = [self._repo.sequences(primary)]
        sets.extend(self._repo.sequences(label) for label in others)
        return intersect_all(sets)

    def top_k(self, query: Query, k: int | None = None) -> TopKResult:
        if k is None:
            k = self._config.default_k
        if k <= 0:
            raise QueryError(f"k must be positive; got {k}")
        scoring = self._scoring
        p_q = self.result_sequences(query)
        stats = AccessStats()
        if not p_q:
            return TopKResult(query=query, ranked=(), stats=stats, p_q=p_q)

        states = [
            _SequenceState(
                interval=iv,
                up_partial=scoring.identity,
                lo_partial=scoring.identity,
                up_missing=len(iv),
                lo_missing=len(iv),
            )
            for iv in p_q
        ]
        starts = [st.interval.start for st in states]

        skip: set[int] = set(
            self._repo.all_clips().difference(p_q).points()
        )
        primary, others = self._split_labels(query)
        iterator = ReferenceTBClipIterator(
            action_table=self._repo.table(primary),
            object_tables=[self._repo.table(label) for label in others],
            scoring=scoring,
            skip=skip,
            stats=stats,
            need_bottom=len(states) > k,
        )

        iterations = 0
        while True:
            c_top, s_top, c_btm, s_btm = iterator.next_pair()
            iterations += 1
            if c_top is None and c_btm is None and iterator.exhausted:
                break
            if c_top is not None:
                self._fold_top(states, starts, c_top, s_top)
            if c_btm is not None:
                self._fold_bottom(states, starts, c_btm, s_btm)
            self._refresh_bounds(states, s_top, s_btm, c_top, c_btm)
            if self._apply_decisions(states, skip, k):
                break

        ranked = sorted(
            states, key=lambda st: (st.lower, st.upper), reverse=True
        )[:k]
        return TopKResult(
            query=query,
            ranked=tuple(
                RankedSequence(
                    interval=st.interval,
                    lower_bound=st.lower,
                    upper_bound=st.upper,
                )
                for st in ranked
            ),
            stats=stats,
            p_q=p_q,
            iterations=iterations,
        )

    @staticmethod
    def _locate(
        starts: list[int], states: list[Any], cid: int
    ) -> int | None:
        pos = bisect_right(starts, cid) - 1
        if pos >= 0 and cid in states[pos].interval:
            return pos
        return None

    def _fold_top(
        self, states: list[Any], starts: list[int], cid: int, score: float
    ) -> None:
        pos = self._locate(starts, states, cid)
        if pos is None:
            return
        st = states[pos]
        st.up_partial = self._scoring.combine(st.up_partial, score)
        st.up_missing -= 1

    def _fold_bottom(
        self, states: list[Any], starts: list[int], cid: int, score: float
    ) -> None:
        pos = self._locate(starts, states, cid)
        if pos is None:
            return
        st = states[pos]
        st.lo_partial = self._scoring.combine(st.lo_partial, score)
        st.lo_missing -= 1

    def _refresh_bounds(
        self,
        states: list[Any],
        s_top: float | None,
        s_btm: float | None,
        c_top: int | None,
        c_btm: int | None,
    ) -> None:
        for st in states:
            if st.decided_in or st.decided_out:
                continue
            if c_top is not None:
                st.upper = self._scoring.combine(
                    self._scoring.repeat(s_top, st.up_missing), st.up_partial
                )
            if st.up_missing == 0:
                st.upper = st.up_partial
            lower = max(st.up_partial, st.lo_partial)
            if c_btm is not None:
                lower = max(
                    lower,
                    self._scoring.combine(
                        self._scoring.repeat(s_btm, st.lo_missing),
                        st.lo_partial,
                    ),
                )
            if st.lo_missing == 0:
                lower = max(lower, st.lo_partial)
            if st.up_missing == 0:
                lower = st.upper
            st.lower = max(st.lower, lower)

    def _apply_decisions(
        self, states: list[Any], skip: set[int], k: int
    ) -> bool:
        order = sorted(range(len(states)), key=lambda i: states[i].lower, reverse=True)
        top_set = set(order[:k])
        b_lo_k = (
            states[order[k - 1]].lower if len(order) >= k else float("-inf")
        )
        rest = order[k:]
        b_up_not_k = max(
            (states[i].upper for i in rest), default=float("-inf")
        )

        if self._enable_skip:
            for i, st in enumerate(states):
                if st.decided_in or st.decided_out:
                    continue
                if st.upper < b_lo_k:
                    st.decided_out = True
                    skip.update(iter(st.interval))
                elif (
                    rest
                    and i in top_set
                    and st.lower > b_up_not_k
                    and not self._config.require_exact_scores
                ):
                    st.decided_in = True
                    skip.update(iter(st.interval))

        if len(states) <= k:
            return all(st.lower == st.upper for st in states)
        if b_lo_k < b_up_not_k:
            return False
        if self._config.require_exact_scores:
            return all(states[i].lower == states[i].upper for i in top_set)
        return True
