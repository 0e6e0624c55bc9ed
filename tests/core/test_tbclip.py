"""Algorithm 5 — TBClip iterator, tested on hand-built tables."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import PaperScoring
from repro.core.tbclip import TBClipIterator
from repro.errors import ConfigurationError, StorageError
from repro.storage.access import AccessStats
from repro.storage.table import ClipScoreTable
from tests.reference.rvaq import ReferenceTBClipIterator


def skip_flags(span, skipped=()):
    """The ``C_skip`` flag column over clip ids ``[0, span)``."""
    flags = bytearray(span)
    for cid in skipped:
        flags[cid] = 1
    return flags


def build_iterator(action_rows, object_rows_list, skip=frozenset()):
    stats = AccessStats()
    iterator = TBClipIterator(
        action_table=ClipScoreTable("act", action_rows),
        object_tables=[
            ClipScoreTable(f"obj{i}", rows)
            for i, rows in enumerate(object_rows_list)
        ],
        scoring=PaperScoring(),
        skip=skip_flags(1 + max(cid for cid, _ in action_rows), skip),
        stats=stats,
    )
    return iterator, stats


def exact_scores(action_rows, object_rows_list):
    scoring = PaperScoring()
    act = dict(action_rows)
    objs = [dict(rows) for rows in object_rows_list]
    return {
        cid: scoring.clip_score(act[cid], [o[cid] for o in objs])
        for cid in act
    }


SIMPLE_ACT = [(0, 1.0), (1, 3.0), (2, 2.0), (3, 0.5)]
SIMPLE_OBJ = [(0, 2.0), (1, 1.0), (2, 4.0), (3, 0.1)]


class TestOrdering:
    def test_tops_descend_bottoms_ascend(self):
        iterator, _ = build_iterator(SIMPLE_ACT, [SIMPLE_OBJ])
        expected = exact_scores(SIMPLE_ACT, [SIMPLE_OBJ])
        tops, bottoms = [], []
        while not iterator.exhausted:
            c_top, s_top, c_btm, s_btm = iterator.next_pair()
            if c_top is not None:
                tops.append((c_top, s_top))
            if c_btm is not None:
                bottoms.append((c_btm, s_btm))
        top_scores = [s for _, s in tops]
        assert top_scores == sorted(top_scores, reverse=True)
        btm_scores = [s for _, s in bottoms]
        assert btm_scores == sorted(btm_scores)
        for cid, score in tops + bottoms:
            assert score == pytest.approx(expected[cid])

    def test_skip_respected(self):
        iterator, _ = build_iterator(SIMPLE_ACT, [SIMPLE_OBJ], skip={1, 2})
        seen = set()
        while not iterator.exhausted:
            c_top, _, c_btm, _ = iterator.next_pair()
            seen |= {c for c in (c_top, c_btm) if c is not None}
        assert seen == {0, 3}

    def test_exhaustion_signals_none(self):
        iterator, _ = build_iterator([(0, 1.0)], [[(0, 1.0)]])
        c_top, _, c_btm, _ = iterator.next_pair()
        # A single clip is simultaneously the highest and lowest unprocessed
        # clip; each direction processes every clip once, which is what
        # drives RVAQ's bounds to exactness at exhaustion.
        assert c_top == 0
        assert c_btm == 0
        c_top, _, c_btm, _ = iterator.next_pair()
        assert c_top is None and c_btm is None
        assert iterator.exhausted

    def test_all_skipped(self):
        iterator, _ = build_iterator(SIMPLE_ACT, [SIMPLE_OBJ], skip={0, 1, 2, 3})
        c_top, _, c_btm, _ = iterator.next_pair()
        assert c_top is None and c_btm is None


class TestAccessAccounting:
    def test_random_access_memoised(self):
        iterator, stats = build_iterator(SIMPLE_ACT, [SIMPLE_OBJ])
        while not iterator.exhausted:
            iterator.next_pair()
        # two tables x four clips: at most one random access per pair
        assert stats.random_accesses <= 8

    def test_sorted_access_charged(self):
        iterator, stats = build_iterator(SIMPLE_ACT, [SIMPLE_OBJ])
        iterator.next_pair()
        assert stats.sorted_accesses >= 2  # one round over both tables


@st.composite
def score_tables(draw):
    n = draw(st.integers(2, 12))
    act = [(cid, draw(st.floats(0.0, 10.0))) for cid in range(n)]
    n_obj = draw(st.integers(1, 3))
    objs = [
        [(cid, draw(st.floats(0.0, 10.0))) for cid in range(n)]
        for _ in range(n_obj)
    ]
    return act, objs


class TestPropertyCompleteness:
    @given(score_tables())
    @settings(max_examples=40, deadline=None)
    def test_every_clip_returned_exactly_once_per_direction(self, tables):
        act, objs = tables
        iterator, _ = build_iterator(act, objs)
        tops, bottoms = [], []
        for _ in range(10 * len(act) + 10):
            if iterator.exhausted:
                break
            c_top, _, c_btm, _ = iterator.next_pair()
            if c_top is not None:
                tops.append(c_top)
            if c_btm is not None:
                bottoms.append(c_btm)
        assert sorted(set(tops) | set(bottoms)) == [cid for cid, _ in act]
        assert len(tops) == len(set(tops))
        assert len(bottoms) == len(set(bottoms))

    @given(score_tables())
    @settings(max_examples=40, deadline=None)
    def test_global_order_sound(self, tables):
        act, objs = tables
        expected = exact_scores(act, objs)
        iterator, _ = build_iterator(act, objs)
        top_seq, btm_seq = [], []
        while not iterator.exhausted:
            c_top, s_top, c_btm, s_btm = iterator.next_pair()
            if c_top is not None:
                top_seq.append(s_top)
            if c_btm is not None:
                btm_seq.append(s_btm)
        assert top_seq == sorted(top_seq, reverse=True)
        assert btm_seq == sorted(btm_seq)


class TestAlternativeScoring:
    def test_order_sound_under_max_scoring(self):
        from repro.core.scoring import MaxScoring

        stats = AccessStats()
        iterator = TBClipIterator(
            action_table=ClipScoreTable("act", SIMPLE_ACT),
            object_tables=[ClipScoreTable("obj", SIMPLE_OBJ)],
            scoring=MaxScoring(),
            skip=skip_flags(len(SIMPLE_ACT)),
            stats=stats,
        )
        tops = []
        while not iterator.exhausted:
            c_top, s_top, _, _ = iterator.next_pair()
            if c_top is not None:
                tops.append(s_top)
        assert tops == sorted(tops, reverse=True)


class TestBottomBudget:
    def test_budget_defers_bottom_without_losing_clips(self):
        # a long tail of skipped clips between the P_q clips and the bottom
        n = 60
        act = [(i, float(i)) for i in range(n)]
        obj = [(i, 1.0) for i in range(n)]
        skip = skip_flags(n, range(0, n - 6))  # only the last 6 eligible
        stats = AccessStats()
        iterator = TBClipIterator(
            action_table=ClipScoreTable("act", act),
            object_tables=[ClipScoreTable("obj", obj)],
            scoring=PaperScoring(),
            skip=skip,
            stats=stats,
            bottom_rounds_per_call=2,
        )
        bottoms = []
        for _ in range(200):
            if iterator.exhausted:
                break
            _, _, c_btm, s_btm = iterator.next_pair()
            if c_btm is not None:
                bottoms.append(c_btm)
        assert sorted(bottoms) == list(range(n - 6, n))

    def test_need_bottom_false_never_returns_bottom(self):
        stats = AccessStats()
        iterator = TBClipIterator(
            action_table=ClipScoreTable("act", SIMPLE_ACT),
            object_tables=[ClipScoreTable("obj", SIMPLE_OBJ)],
            scoring=PaperScoring(),
            skip=skip_flags(len(SIMPLE_ACT)),
            stats=stats,
            need_bottom=False,
        )
        while not iterator.exhausted:
            _, _, c_btm, _ = iterator.next_pair()
            assert c_btm is None
        assert stats.reverse_accesses == 0


def stats_tuple(stats):
    return (stats.sorted_accesses, stats.reverse_accesses, stats.random_accesses)


class TestArrayIndexedState:
    """The clip-id-indexed state against the row-at-a-time reference."""

    def test_clip_missing_from_one_table(self):
        """A clip the second of three tables lacks fails at the moment it
        would have been random-accessed, charged for the one table
        consulted before the gap — not at construction, not in bulk."""
        act = [(0, 9.0), (3, 8.0), (1, 7.0), (2, 6.0), (4, 5.0)]
        obj0 = [(0, 9.0), (1, 8.0), (2, 7.0), (4, 6.0)]  # no clip 3
        obj1 = [(0, 9.0), (1, 8.0), (2, 7.0), (3, 6.0), (4, 5.0)]
        iterator, stats = build_iterator(act, [obj0, obj1])
        ref_stats = AccessStats()
        reference = ReferenceTBClipIterator(
            ClipScoreTable("act", act),
            [ClipScoreTable("obj0", obj0), ClipScoreTable("obj1", obj1)],
            PaperScoring(),
            set(),
            ref_stats,
        )
        # Pair 1 is clean: clip 0 from the top, clip 4 from the bottom.
        assert iterator.next_pair() == reference.next_pair() == (0, 162.0, 4, 55.0)
        with pytest.raises(StorageError, match="clip 3 not in table 'obj0'"):
            iterator.next_pair()
        with pytest.raises(StorageError, match="clip 3 not in table 'obj0'"):
            reference.next_pair()
        # Two complete clips at three accesses each, then the action
        # table's row of clip 3; the interrupted round is not charged.
        assert stats.random_accesses == ref_stats.random_accesses == 7
        assert stats_tuple(stats) == (3, 3, 7)

    def test_skip_column_must_span_the_tables(self):
        iterator = TBClipIterator(
            action_table=ClipScoreTable("act", SIMPLE_ACT),
            object_tables=[ClipScoreTable("obj", SIMPLE_OBJ)],
            scoring=PaperScoring(),
            skip=skip_flags(len(SIMPLE_ACT) - 1),
            stats=AccessStats(),
        )
        with pytest.raises(ConfigurationError, match="outside the skip"):
            iterator.next_pair()

    @pytest.mark.parametrize("seed", range(6))
    def test_gapped_ids_and_growing_skip_match_reference(self, seed):
        """Two videos' worth of global ids with the repository's one-id
        gap between them, ``C_skip`` growing mid-drain: same pairs in the
        same order at the same charges as the reference over a ``set``."""
        rng = np.random.default_rng(seed)
        cids = [*range(0, 23), *range(24, 50)]  # id 23 is the gap
        span = 50
        rows = [
            [(cid, float(s)) for cid, s in zip(cids, np.round(rng.random(len(cids)), 2))]
            for _ in range(3)
        ]
        outside = {23, *rng.choice(cids, size=12, replace=False).tolist()}
        flags, points = skip_flags(span, outside), set(outside)
        stats, ref_stats = AccessStats(), AccessStats()
        tables = [ClipScoreTable(f"t{i}", r) for i, r in enumerate(rows)]
        iterator = TBClipIterator(
            tables[0], tables[1:], PaperScoring(), flags, stats,
            bottom_rounds_per_call=3,
        )
        reference = ReferenceTBClipIterator(
            tables[0], tables[1:], PaperScoring(), points, ref_stats,
            bottom_rounds_per_call=3,
        )
        for _ in range(4 * span):
            pair = iterator.next_pair()
            assert pair == reference.next_pair()
            assert stats_tuple(stats) == stats_tuple(ref_stats)
            assert iterator.exhausted == reference.exhausted
            if iterator.exhausted:
                break
            # Retire a short run of ids, as RVAQ does for a decided sequence.
            start = int(rng.integers(0, span - 3))
            flags[start : start + 3] = b"\x01" * 3
            points.update(range(start, start + 3))
        assert iterator.exhausted
