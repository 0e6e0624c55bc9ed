"""Scatter-gather distributed top-K: equivalence with the single engine.

The contract under test (DESIGN.md "Sharded storage & distributed
top-K"): for every shard count, the distributed result's localized rows
are *identical* to running exact-score RVAQ over the merged single
repository — same sequences, same scores, same order, ties included —
and the merged access/cost accounting equals the sum of the per-shard
reports.  The barrier-round schedule itself is pinned: rounds, per-shard
pairs and merged access counts at fixed seeds and round budgets.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.config import RankingConfig
from repro.core.distributed import (
    DistributedTopKResult,
    GlobalFrontier,
    sharded_top_k,
)
from repro.core.query import Query
from repro.core.rvaq import RVAQ
from repro.core.scoring import PaperScoring
from repro.errors import ConfigurationError, QueryError
from repro.storage.repository import VideoRepository
from repro.storage.sharded import ShardedRepository
from repro.storage.synth import SYNTH_ACTION, SYNTH_OBJECT, synthetic_repository

QUERY = Query(objects=[SYNTH_OBJECT], action=SYNTH_ACTION)


def single_rows(repo: VideoRepository, k: int):
    """The oracle: exact-score RVAQ over the unsharded repository,
    localized exactly as :meth:`OfflineEngine.localized` renders it."""
    cfg = RankingConfig(require_exact_scores=True)
    result = RVAQ(repo, PaperScoring(), cfg).top_k(QUERY, k)
    rows = []
    for r in result.ranked:
        video_id, start = repo.to_local(r.interval.start)
        _, end = repo.to_local(r.interval.end)
        rows.append((video_id, start, end, r.score))
    return rows


def stats_tuple(stats):
    return (stats.sorted_accesses, stats.reverse_accesses, stats.random_accesses)


class TestEquivalence:
    @pytest.mark.parametrize("n_videos,n_clips,k", [(6, 80, 5), (10, 150, 10)])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_rows_identical_to_single_engine(
        self, n_videos, n_clips, k, n_shards
    ):
        repo = synthetic_repository(n_videos, n_clips, seed=7)
        sharded = ShardedRepository.split(repo, n_shards)
        result = sharded_top_k(sharded, QUERY, k)
        assert list(result.rows) == single_rows(repo, k)

    def test_k_exceeds_candidates(self):
        """k beyond |P_q|: every candidate is returned, same order."""
        repo = synthetic_repository(4, 30, seed=3)
        sharded = ShardedRepository.split(repo, 2)
        result = sharded_top_k(sharded, QUERY, 500)
        oracle = single_rows(repo, 500)
        assert list(result.rows) == oracle
        assert len(oracle) < 500  # the config really is candidate-starved

    @pytest.mark.parametrize("budget", [1, 8, 64])
    def test_small_round_budgets(self, budget):
        """Many coordinator rounds (floor feedback live) stay identical."""
        repo = synthetic_repository(6, 60, seed=21)
        sharded = ShardedRepository.split(repo, 3)
        result = sharded_top_k(sharded, QUERY, 5, round_budget=budget)
        assert list(result.rows) == single_rows(repo, 5)


#: (seed, videos, clips, shards, budget) -> rounds, per-shard pairs,
#: per-shard rounds, merged (sorted, reverse, random) accesses.
SCHEDULES = [
    (17, 6, 80, 3, 3, 11, [10, 33, 24], [4, 11, 8], (852, 534, 320)),
    (17, 6, 80, 3, 32, 2, [18, 40, 28], [1, 2, 1], (852, 556, 366)),
    (17, 6, 80, 3, 64, 1, [18, 45, 28], [1, 1, 1], (852, 564, 370)),
    (9, 8, 100, 4, 3, 12, [0, 18, 34, 33], [0, 6, 12, 11], (1114, 644, 498)),
    (9, 8, 100, 4, 32, 2, [0, 23, 39, 37], [0, 1, 2, 2], (1198, 634, 540)),
    (9, 8, 100, 4, 64, 1, [0, 23, 40, 43], [0, 1, 1, 1], (1266, 696, 542)),
]


class TestAccounting:
    def test_merged_stats_equal_per_shard_sums(self):
        repo = synthetic_repository(8, 100, seed=9)
        sharded = ShardedRepository.split(repo, 4)
        result = sharded_top_k(sharded, QUERY, 5)
        assert isinstance(result, DistributedTopKResult)
        summed = (0, 0, 0)
        for report in result.per_shard:
            s = stats_tuple(report.stats)
            summed = tuple(a + b for a, b in zip(summed, s))
        assert stats_tuple(result.stats) == summed
        assert result.iterations == sum(
            report.iterations for report in result.per_shard
        )
        # The seconds are reported where they are measured: on the report
        # of every shard that stepped.
        assert [report.shard for report in result.per_shard] == [0, 1, 2, 3]
        assert result.iterations > 0
        assert all(
            report.wall_s > 0 for report in result.per_shard if report.iterations
        )

    @pytest.mark.parametrize(
        "seed, n_videos, n_clips, n_shards, budget, rounds, pairs, rounds_per_shard, stats",
        SCHEDULES,
        ids=[f"seed{row[0]}-budget{row[4]}" for row in SCHEDULES],
    )
    def test_the_round_schedule_is_pinned(
        self, seed, n_videos, n_clips, n_shards, budget, rounds, pairs,
        rounds_per_shard, stats,
    ):
        """Rounds, per-shard TBClip pairs and merged access counts of the
        serial barrier loop at fixed seeds and round budgets: the floor
        each round steps under decides them, so a change to when the
        coordinator composes or reads the frontier moves them."""
        repo = synthetic_repository(n_videos, n_clips, seed=seed)
        result = sharded_top_k(
            ShardedRepository.split(repo, n_shards), QUERY, 5, round_budget=budget
        )
        assert result.rounds == rounds
        assert [r.iterations for r in result.per_shard] == pairs
        assert [r.rounds for r in result.per_shard] == rounds_per_shard
        assert stats_tuple(result.stats) == stats
        assert list(result.rows) == single_rows(repo, 5)

    def test_floor_feedback_prunes_work(self):
        """With multiple rounds the coordinator's floor retires shard
        work early; one giant round never feeds the floor back."""
        repo = synthetic_repository(8, 100, seed=9)
        small = sharded_top_k(
            ShardedRepository.split(repo, 4), QUERY, 5, round_budget=8
        )
        huge = sharded_top_k(
            ShardedRepository.split(repo, 4), QUERY, 5, round_budget=10**6
        )
        assert list(small.rows) == list(huge.rows)
        assert huge.rounds == 1
        assert small.rounds > 1
        assert small.iterations <= huge.iterations


class TestGlobalFrontier:
    def test_floor_is_kth_of_union(self):
        frontier = GlobalFrontier(n_shards=2, k=3)
        assert frontier.floor == float("-inf")

        def summary(shard, lowers):
            return SimpleNamespace(shard=shard, top_lowers=lowers)

        frontier.observe(summary(0, (0.9, 0.5)))
        assert frontier.floor == float("-inf")  # only 2 bounds so far
        frontier.observe(summary(1, (0.8, 0.7)))
        assert frontier.floor == 0.7
        # Re-observation replaces, never accumulates.
        frontier.observe(summary(1, (0.95, 0.1)))
        assert frontier.floor == 0.5


class TestValidation:
    def test_bad_arguments(self):
        sharded = ShardedRepository.split(
            synthetic_repository(2, 20, seed=1), 2
        )
        with pytest.raises(ConfigurationError):
            sharded_top_k(sharded, QUERY, 5, round_budget=0)
        # "thread" stepped pure-Python RVAQ under the GIL and is gone;
        # "process" bought no time over the serial loop and is gone too.
        for executor in ("bogus", "thread", "process"):
            with pytest.raises(ConfigurationError, match="unknown executor"):
                sharded_top_k(sharded, QUERY, 5, executor=executor)

    def test_unconverged_finish_refused(self):
        from repro.core.distributed import ShardSearch

        repo = synthetic_repository(2, 40, seed=1)
        search = ShardSearch(repo, QUERY, 3)
        with pytest.raises(QueryError, match="converged"):
            search.finish()
