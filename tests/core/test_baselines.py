"""Offline baselines (§5.1): all must agree with brute force; their cost
profiles must show the paper's ordering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import fagin_baseline, pq_traverse, rvaq_noskip
from repro.core.query import Query
from repro.core.rvaq import RVAQ
from repro.errors import QueryError
from tests.reference.intervals import from_indicator
from tests.core.test_rvaq import brute_force, build_repo

QUERY = Query(objects=["car"], action="jumping")

ACT = [0.1, 5.0, 4.0, 0.2, 9.0, 8.0, 0.1, 2.0, 2.5, 0.3, 7.0, 6.5]
CAR = [1.0, 2.0, 2.0, 1.0, 3.0, 3.0, 1.0, 1.5, 1.0, 1.0, 2.0, 2.0]
ACT_SPANS = [(1, 2), (4, 5), (7, 8), (10, 11)]
CAR_SPANS = [(0, 11)]


@pytest.fixture()
def repo():
    return build_repo(ACT, CAR, ACT_SPANS, CAR_SPANS)


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_pq_traverse_matches_brute_force(self, repo, k):
        expected = brute_force(repo, QUERY, k)
        result = pq_traverse(repo, QUERY, k)
        assert [r.interval for r in result.ranked] == [iv for _, iv in expected]
        for ranked, (score, _) in zip(result.ranked, expected):
            assert ranked.score == pytest.approx(score)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_fagin_matches_brute_force(self, repo, k):
        expected = brute_force(repo, QUERY, k)
        result = fagin_baseline(repo, QUERY, k)
        assert [r.interval for r in result.ranked] == [iv for _, iv in expected]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rvaq_noskip_matches_set(self, repo, k):
        expected = {iv for _, iv in brute_force(repo, QUERY, k)}
        result = rvaq_noskip(repo, QUERY, k)
        assert {r.interval for r in result.ranked} == expected

    def test_invalid_k(self, repo):
        with pytest.raises(QueryError):
            pq_traverse(repo, QUERY, 0)
        with pytest.raises(QueryError):
            fagin_baseline(repo, QUERY, -1)

    @given(
        st.lists(st.floats(0, 10), min_size=6, max_size=20),
        st.integers(1, 4),
        st.integers(0, 10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_all_algorithms_agree_on_scores(self, scores, k, seed):
        import random

        rng = random.Random(seed)
        n = len(scores)
        car = [rng.uniform(0, 10) for _ in range(n)]
        act_flags = [rng.random() < 0.5 for _ in range(n)]
        repo = build_repo(
            scores, car,
            from_indicator(act_flags).as_tuples(),
            [(0, n - 1)],
        )
        expected = sorted(
            (round(s, 6) for s, _ in brute_force(repo, QUERY, k)), reverse=True
        )
        for runner in (
            lambda: pq_traverse(repo, QUERY, k),
            lambda: fagin_baseline(repo, QUERY, k),
            lambda: rvaq_noskip(repo, QUERY, k),
            lambda: RVAQ(repo).top_k(QUERY, k),
        ):
            result = runner()
            got = sorted(
                (
                    round(
                        brute_force(repo, QUERY, 10**6)[
                            [iv for _, iv in brute_force(repo, QUERY, 10**6)].index(
                                r.interval
                            )
                        ][0],
                        6,
                    )
                    for r in result.ranked
                ),
                reverse=True,
            )
            assert got == expected


class TestCostProfiles:
    def test_fa_most_random_accesses(self, repo):
        k = 2
        fa = fagin_baseline(repo, QUERY, k).stats
        traverse = pq_traverse(repo, QUERY, k).stats
        rvaq = RVAQ(repo).top_k(QUERY, k).stats
        assert fa.random_accesses >= traverse.random_accesses
        assert fa.random_accesses >= rvaq.random_accesses

    def test_traverse_constant_in_k(self, repo):
        costs = {
            k: pq_traverse(repo, QUERY, k).stats.random_accesses
            for k in (1, 2, 4)
        }
        assert len(set(costs.values())) == 1

    def test_rvaq_skip_saves_random_accesses(self, repo):
        with_skip = RVAQ(repo).top_k(QUERY, 1).stats.random_accesses
        without = rvaq_noskip(repo, QUERY, 1).stats.random_accesses
        assert with_skip <= without
