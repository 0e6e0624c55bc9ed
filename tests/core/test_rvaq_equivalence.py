"""Equivalence suite for the vectorized offline top-K path.

The vectorized RVAQ/TBClip implementation must reproduce the reference
(pair-at-a-time, per-sequence-object) implementation *bit for bit* — same
ranked tuples, same metered access counts, same iteration count — and
must keep the same result *set* with the skip set disabled.

Contracts being pinned down (see DESIGN.md "Offline top-K pipeline"):

* Runs are bit-identical to the reference (``tests/reference/rvaq.py``).
* Within the returned top-k, *membership* is guaranteed; internal order
  follows the (lower, upper) bound sort and only matches true-score order
  when ``require_exact_scores`` is set — which the reference shares.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from repro.core.config import RankingConfig
from repro.core.query import Query
from repro.core import rvaq
from repro.core.baselines import pq_traverse
from repro.core.rvaq import RVAQ
from repro.core.scoring import MaxScoring, PaperScoring
from repro.storage.access import AccessStats
from repro.storage.ingest import VideoIngest
from repro.storage.repository import VideoRepository
from repro.storage.table import ClipScoreTable
from repro.utils.intervals import IntervalSet
from tests.reference import rvaq as rvaq_reference
from tests.reference.rvaq import ReferenceRVAQ

QUERY = Query(objects=["car"], action="jumping")


def rand_repo(seed: int, n_videos: int = 4, n_clips: int = 40) -> VideoRepository:
    """A randomized multi-video repository with overlapping car/jumping
    runs; scores rounded to 3 decimals so bound ties actually occur."""
    rng = np.random.default_rng(seed)
    repo = VideoRepository()
    for v in range(n_videos):
        act_scores = np.round(rng.random(n_clips), 3)
        car_scores = np.round(rng.random(n_clips), 3)

        def spans() -> list[tuple[int, int]]:
            out, pos = [], 0
            while pos < n_clips:
                start = pos + int(rng.integers(0, 4))
                if start >= n_clips:
                    break
                end = min(n_clips - 1, start + int(rng.integers(0, 6)))
                out.append((start, end))
                pos = end + 2
            return out or [(0, n_clips - 1)]

        repo.add(
            VideoIngest(
                video_id=f"v{v}",
                n_clips=n_clips,
                object_tables={
                    "car": ClipScoreTable("car", list(enumerate(car_scores)))
                },
                action_tables={
                    "jumping": ClipScoreTable(
                        "jumping", list(enumerate(act_scores))
                    )
                },
                object_sequences={"car": IntervalSet(spans())},
                action_sequences={"jumping": IntervalSet(spans())},
            )
        )
    return repo


def true_score(repo, interval, scoring) -> float:
    act = repo.table(QUERY.action)
    objs = [repo.table(o) for o in QUERY.objects]
    return scoring.aggregate(
        scoring.clip_score(
            act.random_access(cid), [o.random_access(cid) for o in objs]
        )
        for cid in interval
    )


def score_multiset(repo, result, scoring) -> Counter:
    """The returned sequences' true scores, rounded to kill last-ulp
    fold-order noise — the mode-independent invariant."""
    return Counter(
        round(true_score(repo, r.interval, scoring), 9) for r in result.ranked
    )


def stats_tuple(result):
    s = result.stats
    return (s.sorted_accesses, s.reverse_accesses, s.random_accesses)


def ranked_tuples(result):
    return [
        (r.interval.start, r.interval.end, r.lower_bound, r.upper_bound)
        for r in result.ranked
    ]


class TestSerialBitIdentity:
    """RVAQ must equal the reference implementation exactly."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_paper_scoring(self, seed, k):
        repo = rand_repo(seed)
        ref = ReferenceRVAQ(repo, PaperScoring(), RankingConfig()).top_k(QUERY, k)
        new = RVAQ(repo, PaperScoring(), RankingConfig()).top_k(QUERY, k)
        assert ranked_tuples(new) == ranked_tuples(ref)
        assert stats_tuple(new) == stats_tuple(ref)
        assert new.iterations == ref.iterations

    @pytest.mark.parametrize("seed", range(6))
    def test_max_scoring(self, seed):
        repo = rand_repo(seed)
        ref = ReferenceRVAQ(repo, MaxScoring(), RankingConfig()).top_k(QUERY, 5)
        new = RVAQ(repo, MaxScoring(), RankingConfig()).top_k(QUERY, 5)
        assert ranked_tuples(new) == ranked_tuples(ref)
        assert stats_tuple(new) == stats_tuple(ref)

    @pytest.mark.parametrize("seed", range(6))
    def test_require_exact_scores(self, seed):
        repo = rand_repo(seed)
        cfg = RankingConfig(require_exact_scores=True)
        ref = ReferenceRVAQ(repo, PaperScoring(), cfg).top_k(QUERY, 4)
        new = RVAQ(repo, PaperScoring(), cfg).top_k(QUERY, 4)
        assert ranked_tuples(new) == ranked_tuples(ref)
        assert stats_tuple(new) == stats_tuple(ref)
        assert new.iterations == ref.iterations

    @pytest.mark.parametrize("seed", range(4))
    def test_k_geq_candidates(self, seed):
        """k at least |P_q|: every candidate is returned, bounds exact."""
        repo = rand_repo(seed)
        ref = ReferenceRVAQ(repo, PaperScoring(), RankingConfig()).top_k(
            QUERY, 200
        )
        new = RVAQ(repo, PaperScoring(), RankingConfig()).top_k(QUERY, 200)
        assert ranked_tuples(new) == ranked_tuples(ref)
        assert stats_tuple(new) == stats_tuple(ref)
        assert len(new.ranked) == len(new.p_q)
        for r in new.ranked:
            assert r.lower_bound == r.upper_bound

    @pytest.mark.parametrize("seed", range(6))
    def test_skip_column_matches_point_set(self, seed, monkeypatch):
        """``C_skip`` as a flag byte per global clip id holds exactly the
        ids the reference's brute-force point ``set`` ends up holding."""
        repo = rand_repo(seed)
        seen = {}

        def spy(module, name):
            cls = getattr(module, name)

            class Spy(cls):
                def __init__(self, *args, skip, **kwargs):
                    seen[name] = skip  # held by reference: grows in place
                    super().__init__(*args, skip=skip, **kwargs)

            monkeypatch.setattr(module, name, Spy)

        spy(rvaq, "TBClipIterator")
        spy(rvaq_reference, "ReferenceTBClipIterator")
        RVAQ(repo, PaperScoring(), RankingConfig()).top_k(QUERY, 5)
        ReferenceRVAQ(repo, PaperScoring(), RankingConfig()).top_k(QUERY, 5)
        flags, points = seen["TBClipIterator"], seen["ReferenceTBClipIterator"]
        # Ids are gapped by one between videos, so the column is longer
        # than the clip count; gap ids belong to no table and stay flagged.
        assert len(flags) == repo.id_span > repo.total_clips
        gaps = set(range(repo.id_span)) - set(repo.all_clips().points())
        assert {cid for cid, flag in enumerate(flags) if flag} == points | gaps
        assert points > set(repo.all_clips().difference(
            RVAQ(repo).result_sequences(QUERY)
        ).points())  # some sequence was decided: the column grew


class TestExactScores:
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_mode_scores(self, seed):
        """Exact mode: the decided top set's bounds equal true scores
        (up to fold-order ulps)."""
        repo = rand_repo(seed)
        scoring = PaperScoring()
        cfg = RankingConfig(require_exact_scores=True)
        result = RVAQ(repo, scoring, cfg).top_k(QUERY, 4)
        for r in result.ranked:
            assert math.isclose(
                r.lower_bound,
                true_score(repo, r.interval, scoring),
                rel_tol=1e-9,
                abs_tol=1e-9,
            )


class TestSkipEquivalence:
    """enable_skip=False scans more but returns the same sequences."""

    @pytest.mark.parametrize("seed", range(8))
    def test_same_score_multiset(self, seed):
        repo = rand_repo(seed)
        scoring = PaperScoring()
        with_skip = RVAQ(repo, scoring, RankingConfig()).top_k(QUERY, 5)
        no_skip = RVAQ(
            repo, scoring, RankingConfig(), enable_skip=False
        ).top_k(QUERY, 5)
        assert score_multiset(repo, no_skip, scoring) == score_multiset(
            repo, with_skip, scoring
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_membership_matches_brute_force(self, seed):
        """Top-k membership (by true score, ties broken arbitrarily) is
        guaranteed even though within-top-k order is bound-driven."""
        repo = rand_repo(seed)
        scoring = PaperScoring()
        k = 5
        result = RVAQ(repo, scoring, RankingConfig()).top_k(QUERY, k)
        truth = sorted(
            (round(true_score(repo, iv, scoring), 9) for iv in result.p_q),
            reverse=True,
        )[:k]
        assert sorted(
            score_multiset(repo, result, scoring).elements(), reverse=True
        ) == truth


def long_repo(seed: int, n_videos: int = 6, n_clips: int = 1200) -> VideoRepository:
    """≥ 300 result sequences of 1–40 clips each: missing counts vary
    slot to slot and the working set is compacted hundreds of times."""
    rng = np.random.default_rng(seed)
    repo = VideoRepository()
    for v in range(n_videos):
        spans, pos = [], int(rng.integers(0, 3))
        while pos < n_clips:
            end = min(n_clips - 1, pos + int(rng.integers(0, 40)))
            spans.append((pos, end))
            pos = end + 2 + int(rng.integers(0, 3))
        sequences = IntervalSet(spans)
        repo.add(
            VideoIngest(
                video_id=f"v{v}",
                n_clips=n_clips,
                object_tables={
                    "car": ClipScoreTable(
                        "car", list(enumerate(np.round(rng.random(n_clips), 3)))
                    )
                },
                action_tables={
                    "jumping": ClipScoreTable(
                        "jumping",
                        list(enumerate(np.round(rng.random(n_clips), 3))),
                    )
                },
                object_sequences={"car": sequences},
                action_sequences={"jumping": sequences},
            )
        )
    return repo


class FlooredReference(ReferenceRVAQ):
    """The reference with the coordinator's floor: a sequence whose upper
    bound is strictly below it is decided out before the K-th-lower-bound
    rule runs (neither rule reads what the other decided)."""

    floor = float("-inf")

    def _apply_decisions(self, states, skip, k):
        for st in states:
            if not (st.decided_in or st.decided_out) and st.upper < self.floor:
                st.decided_out = True
                skip.update(iter(st.interval))
        return super()._apply_decisions(states, skip, k)


def run_with_floor(engine: RVAQ, k: int, floor: float):
    """``RVAQ.top_k``'s loop with a floor, as ``ShardSearch`` passes one;
    returns ``(result, working set)``."""
    p_q = engine.result_sequences(QUERY)
    stats = AccessStats()
    bounds, iterator = engine._open(QUERY, p_q, k, stats)
    iterations = 0
    while True:
        pair = iterator.next_pair()
        iterations += 1
        if iterator.drained(pair) or engine._consume_pair(bounds, pair, k, floor):
            break
    result = rvaq.TopKResult(
        query=QUERY,
        ranked=tuple(bounds.ranked(k)),
        stats=stats,
        p_q=p_q,
        iterations=iterations,
    )
    return result, bounds


def assert_bit_identical(new, ref):
    assert ranked_tuples(new) == ranked_tuples(ref)
    assert stats_tuple(new) == stats_tuple(ref)
    assert new.iterations == ref.iterations


class TestWorkingSetEquivalence:
    """Where compaction, the drop rule and the frozen-slot fix-ups could
    diverge from the full-width reference."""

    @pytest.fixture(scope="class")
    def repo(self):
        repo = long_repo(0)
        assert len(RVAQ(repo).result_sequences(QUERY)) >= 300
        return repo

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("k", [1, 10, 50])
    @pytest.mark.parametrize("scoring", [PaperScoring(), MaxScoring()], ids=type)
    def test_many_long_sequences(self, repo, scoring, k, exact):
        cfg = RankingConfig(require_exact_scores=exact)
        assert_bit_identical(
            RVAQ(repo, scoring, cfg).top_k(QUERY, k),
            ReferenceRVAQ(repo, scoring, cfg).top_k(QUERY, k),
        )

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("k", [1, 10])
    def test_finite_floor(self, repo, k, exact):
        """A floor at the true K-th score retires sequences the local
        bounds could not, leaving frozen slots above ``b_lo^K`` in the
        working set."""
        cfg = RankingConfig(require_exact_scores=exact)
        floor = pq_traverse(repo, QUERY, k).ranked[-1].score
        reference = FlooredReference(repo, PaperScoring(), cfg)
        reference.floor = floor
        new, _ = run_with_floor(RVAQ(repo, PaperScoring(), cfg), k, floor)
        ref = reference.top_k(QUERY, k)
        assert_bit_identical(new, ref)
        unfloored = RVAQ(repo, PaperScoring(), cfg).top_k(QUERY, k)
        assert new.iterations < unfloored.iterations  # the floor did bite

    def test_compaction_fires(self, repo):
        _, bounds = run_with_floor(RVAQ(repo), 10, float("-inf"))
        assert 10 <= len(bounds.lower) < bounds.n_sequences / 2
        assert (bounds.position[bounds.slots] == np.arange(len(bounds.slots))).all()
        # Ties go to the lowest slot: every row knows its own, one row each.
        assert len(set(bounds.slots.tolist())) == len(bounds.slots)

    @pytest.mark.parametrize("extra", [0, 5])
    def test_k_at_least_candidates_never_compacts(self, extra):
        """``n == k`` and ``n < k`` (where the bottom walk is off): nothing
        is ever strictly below the K-th lower bound, so nothing is dropped."""
        repo = rand_repo(3)
        cfg = RankingConfig()
        k = len(RVAQ(repo).result_sequences(QUERY)) + extra
        new, bounds = run_with_floor(RVAQ(repo, PaperScoring(), cfg), k, float("-inf"))
        assert_bit_identical(new, ReferenceRVAQ(repo, PaperScoring(), cfg).top_k(QUERY, k))
        assert new.stats.reverse_accesses == 0
        assert len(bounds.lower) == bounds.n_sequences
        assert (bounds.position[: bounds.n_sequences] >= 0).all()

    def test_decided_out_sequence_holding_the_kth_lower_bound(self):
        """Sequence A's clips sum to 0.6 folded from the top (0.3 + 0.2 +
        0.1) and to 0.6000000000000001 from the bottom, so once fully
        folded its upper bound is an ulp *below* its lower bound.  With
        K = 2 that lower bound is ``b_lo^K``: A is decided out (``upper <
        b_lo^K``) while being the K-th best, and has to stay in the order
        statistic and in the answer — dropping on the upper bound alone
        would lose it."""
        act = [0.1, 0.2, 0.3, 9.0, 0.25, 0.25, 9.0, 5.0, 6.0, 7.0, 9.0]
        sequences = IntervalSet([(0, 2), (4, 5), (7, 9)])  # A, C, B
        repo = VideoRepository()
        repo.add(
            VideoIngest(
                video_id="v",
                n_clips=len(act),
                object_tables={
                    "car": ClipScoreTable("car", [(i, 1.0) for i in range(len(act))])
                },
                action_tables={
                    "jumping": ClipScoreTable("jumping", list(enumerate(act)))
                },
                object_sequences={"car": sequences},
                action_sequences={"jumping": sequences},
            )
        )
        cfg = RankingConfig(require_exact_scores=True)
        new, bounds = run_with_floor(RVAQ(repo, PaperScoring(), cfg), 2, float("-inf"))
        assert_bit_identical(new, ReferenceRVAQ(repo, PaperScoring(), cfg).top_k(QUERY, 2))
        assert ranked_tuples(new) == [
            (7, 9, 18.0, 18.0),
            (0, 2, 0.6000000000000001, 0.6),
        ]
        # C (0.5) was dropped; A was decided out yet kept.
        assert sorted(bounds.slots.tolist()) == [0, 2]
        assert not bounds.live[bounds.position[0]]
