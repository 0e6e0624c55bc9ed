"""Algorithm 4 — RVAQ, validated against brute-force top-K on hand-built
and randomly generated repositories."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RankingConfig
from repro.core.query import Query
from repro.core.rvaq import RVAQ
from repro.core.scoring import PaperScoring
from tests.reference.scoring import MaxScoring
from repro.errors import QueryError
from repro.storage.ingest import VideoIngest
from repro.storage.repository import VideoRepository
from repro.storage.table import ClipScoreTable
from repro.utils.intervals import IntervalSet
from tests.reference.intervals import from_indicator

QUERY = Query(objects=["car"], action="jumping")


def build_repo(
    act_scores: list[float],
    car_scores: list[float],
    act_spans: list[tuple[int, int]],
    car_spans: list[tuple[int, int]],
) -> VideoRepository:
    n = len(act_scores)
    assert len(car_scores) == n
    ingest = VideoIngest(
        video_id="v",
        n_clips=n,
        object_tables={"car": ClipScoreTable("car", list(enumerate(car_scores)))},
        action_tables={
            "jumping": ClipScoreTable("jumping", list(enumerate(act_scores)))
        },
        object_sequences={"car": IntervalSet(car_spans)},
        action_sequences={"jumping": IntervalSet(act_spans)},
    )
    repo = VideoRepository()
    repo.add(ingest)
    return repo


def brute_force(repo: VideoRepository, query: Query, k: int, scoring=None):
    scoring = scoring or PaperScoring()
    p_q = RVAQ(repo, scoring).result_sequences(query)
    act = repo.table(query.action)
    objs = [repo.table(o) for o in query.objects]
    scored = []
    for interval in p_q:
        total = scoring.aggregate(
            scoring.clip_score(
                act.random_access(cid), [o.random_access(cid) for o in objs]
            )
            for cid in interval
        )
        scored.append((total, interval))
    scored.sort(key=lambda pair: pair[0], reverse=True)
    return scored[:k]


class TestResultSequences:
    def test_intersection(self):
        repo = build_repo(
            [1.0] * 10, [1.0] * 10, act_spans=[(0, 5)], car_spans=[(3, 8)]
        )
        p_q = RVAQ(repo).result_sequences(QUERY)
        assert p_q.as_tuples() == [(3, 5)]

    def test_requires_single_action(self):
        repo = build_repo([1.0], [1.0], [(0, 0)], [(0, 0)])
        with pytest.raises(QueryError):
            RVAQ(repo).result_sequences(Query(objects=["car"]))

    def test_empty_intersection(self):
        repo = build_repo(
            [1.0] * 10, [1.0] * 10, act_spans=[(0, 2)], car_spans=[(5, 8)]
        )
        result = RVAQ(repo).top_k(QUERY, 3)
        assert result.ranked == ()


class TestTopK:
    def test_matches_brute_force_set(self):
        act = [0.1, 5.0, 4.0, 0.2, 9.0, 8.0, 0.1, 2.0, 2.5, 0.3]
        car = [1.0, 2.0, 2.0, 1.0, 3.0, 3.0, 1.0, 1.5, 1.0, 1.0]
        repo = build_repo(
            act, car, act_spans=[(1, 2), (4, 5), (7, 8)], car_spans=[(0, 9)]
        )
        expected = brute_force(repo, QUERY, 2)
        result = RVAQ(repo).top_k(QUERY, 2)
        assert {r.interval for r in result.ranked} == {
            iv for _, iv in expected
        }

    def test_exact_mode_order_and_scores(self):
        act = [0.1, 5.0, 4.0, 0.2, 9.0, 8.0, 0.1, 2.0, 2.5, 0.3]
        car = [1.0, 2.0, 2.0, 1.0, 3.0, 3.0, 1.0, 1.5, 1.0, 1.0]
        repo = build_repo(
            act, car, act_spans=[(1, 2), (4, 5), (7, 8)], car_spans=[(0, 9)]
        )
        config = RankingConfig(require_exact_scores=True)
        result = RVAQ(repo, config=config).top_k(QUERY, 3)
        expected = brute_force(repo, QUERY, 3)
        assert [r.interval for r in result.ranked] == [iv for _, iv in expected]
        for ranked, (score, _) in zip(result.ranked, expected):
            assert ranked.lower_bound == ranked.upper_bound
            assert ranked.score == pytest.approx(score)

    def test_k_larger_than_sequences_returns_all_exact(self):
        act = [1.0, 2.0, 3.0, 4.0]
        car = [1.0, 1.0, 1.0, 1.0]
        repo = build_repo(act, car, act_spans=[(0, 1), (3, 3)], car_spans=[(0, 3)])
        result = RVAQ(repo).top_k(QUERY, 10)
        assert len(result.ranked) == 2
        assert all(r.lower_bound == r.upper_bound for r in result.ranked)

    def test_bounds_bracket_truth(self):
        act = [0.5, 3.0, 2.0, 7.0, 1.0, 6.0]
        car = [1.0, 1.0, 2.0, 1.0, 1.0, 2.0]
        repo = build_repo(act, car, act_spans=[(0, 2), (3, 5)], car_spans=[(0, 5)])
        result = RVAQ(repo).top_k(QUERY, 1)
        expected = dict(
            (iv, score) for score, iv in brute_force(repo, QUERY, 2)
        )
        for ranked in result.ranked:
            truth = expected[ranked.interval]
            assert ranked.lower_bound <= truth + 1e-9
            assert ranked.upper_bound >= truth - 1e-9

    def test_invalid_k(self):
        repo = build_repo([1.0], [1.0], [(0, 0)], [(0, 0)])
        with pytest.raises(QueryError):
            RVAQ(repo).top_k(QUERY, 0)


@st.composite
def random_instances(draw):
    n = draw(st.integers(4, 24))
    act_scores = [draw(st.floats(0.0, 10.0)) for _ in range(n)]
    car_scores = [draw(st.floats(0.0, 10.0)) for _ in range(n)]
    act_flags = [draw(st.booleans()) for _ in range(n)]
    car_flags = [draw(st.booleans()) for _ in range(n)]
    k = draw(st.integers(1, 5))
    return n, act_scores, car_scores, act_flags, car_flags, k


class TestPropertyAgainstBruteForce:
    @given(random_instances())
    @settings(max_examples=60, deadline=None)
    def test_top_k_set(self, instance):
        n, act_scores, car_scores, act_flags, car_flags, k = instance
        repo = build_repo(
            act_scores,
            car_scores,
            act_spans=from_indicator(act_flags).as_tuples(),
            car_spans=from_indicator(car_flags).as_tuples(),
        )
        expected = brute_force(repo, QUERY, k)
        result = RVAQ(repo).top_k(QUERY, k)
        assert len(result.ranked) == len(expected)
        got_scores = sorted(
            (round(score, 6) for score, _ in expected), reverse=True
        )
        # Compare by exact score multiset of the chosen intervals — ties can
        # legitimately swap which tied interval is returned.
        chosen = []
        for ranked in result.ranked:
            score = brute_force_single(repo, ranked.interval)
            chosen.append(round(score, 6))
        assert sorted(chosen, reverse=True) == got_scores

    @given(random_instances())
    @settings(max_examples=30, deadline=None)
    def test_alternative_scoring_scheme(self, instance):
        n, act_scores, car_scores, act_flags, car_flags, k = instance
        repo = build_repo(
            act_scores,
            car_scores,
            act_spans=from_indicator(act_flags).as_tuples(),
            car_spans=from_indicator(car_flags).as_tuples(),
        )
        scoring = MaxScoring()
        expected = brute_force(repo, QUERY, k, scoring)
        result = RVAQ(repo, scoring=scoring).top_k(QUERY, k)
        expected_scores = sorted((round(s, 6) for s, _ in expected), reverse=True)
        chosen = sorted(
            (
                round(brute_force_single(repo, r.interval, scoring), 6)
                for r in result.ranked
            ),
            reverse=True,
        )
        assert chosen == expected_scores


def brute_force_single(repo, interval, scoring=None):
    scoring = scoring or PaperScoring()
    act = repo.table("jumping")
    car = repo.table("car")
    return scoring.aggregate(
        scoring.clip_score(act.random_access(cid), [car.random_access(cid)])
        for cid in interval
    )


class TestMultiActionQueries:
    """The footnote-3 extension offline: extra actions rank like objects."""

    def _two_action_repo(self):
        n = 12
        jump = [float(i % 5) for i in range(n)]
        wave = [float((i * 3) % 7) for i in range(n)]
        car = [1.0] * n
        ingest = VideoIngest(
            video_id="v",
            n_clips=n,
            object_tables={"car": ClipScoreTable("car", list(enumerate(car)))},
            action_tables={
                "jumping": ClipScoreTable("jumping", list(enumerate(jump))),
                "waving": ClipScoreTable("waving", list(enumerate(wave))),
            },
            object_sequences={"car": IntervalSet([(0, n - 1)])},
            action_sequences={
                "jumping": IntervalSet([(0, 5), (8, 11)]),
                "waving": IntervalSet([(2, 9)]),
            },
        )
        repo = VideoRepository()
        repo.add(ingest)
        return repo

    def test_pq_is_intersection_of_all_actions(self):
        repo = self._two_action_repo()
        query = Query(objects=["car"], actions=["jumping", "waving"])
        p_q = RVAQ(repo).result_sequences(query)
        assert p_q.as_tuples() == [(2, 5), (8, 9)]

    def test_top_k_runs_and_is_exact_at_max(self):
        repo = self._two_action_repo()
        query = Query(objects=["car"], actions=["jumping", "waving"])
        result = RVAQ(repo).top_k(query, k=5)
        assert len(result.ranked) == 2
        assert all(r.lower_bound == r.upper_bound for r in result.ranked)
        # scores come from g(action1, [action2, car]) aggregated over clips
        scoring = PaperScoring()
        jump = repo.table("jumping")
        wave = repo.table("waving")
        car = repo.table("car")
        for ranked in result.ranked:
            expected = scoring.aggregate(
                scoring.clip_score(
                    jump.random_access(cid),
                    [wave.random_access(cid), car.random_access(cid)],
                )
                for cid in ranked.interval
            )
            assert ranked.score == pytest.approx(expected)

    def test_no_action_rejected(self):
        repo = self._two_action_repo()
        with pytest.raises(QueryError):
            RVAQ(repo).result_sequences(Query(objects=["car"]))
