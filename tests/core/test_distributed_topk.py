"""Scatter-gather distributed top-K: equivalence with the single engine.

The contract under test (DESIGN.md "Sharded storage & distributed
top-K"): for every shard count and every executor, the distributed
result's localized rows are *identical* to running exact-score RVAQ over
the merged single repository — same sequences, same scores, same order,
ties included — and the merged access/cost accounting equals the sum of
the per-shard reports.  The serial and process executors share one
barrier-round schedule, so their per-shard accounting is identical too.
"""

from __future__ import annotations

import pytest

from repro.core.config import RankingConfig
from repro.core.distributed import (
    DistributedTopKResult,
    GlobalFrontier,
    ShardFrontier,
    sharded_top_k,
)
from repro.core.engine import OfflineEngine
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

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_process_executor_in_memory(self, n_shards):
        repo = synthetic_repository(6, 80, seed=7)
        sharded = ShardedRepository.split(repo, n_shards)
        result = sharded_top_k(sharded, QUERY, 5, executor="process")
        assert list(result.rows) == single_rows(repo, 5)

    def test_process_executor_from_saved_tree(self, tmp_path):
        """Workers open their shards from disk via the format-3 memmap."""
        repo = synthetic_repository(8, 100, seed=13)
        sharded = ShardedRepository.split(repo, 4)
        sharded.save(tmp_path / "tree")
        loaded = ShardedRepository.load(tmp_path / "tree")
        result = sharded_top_k(loaded, QUERY, 5, executor="process")
        assert list(result.rows) == single_rows(repo, 5)

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

    @pytest.mark.parametrize("budget", [3, 32])
    def test_executor_invariant_accounting(self, budget):
        """Serial and process executors follow the same barrier-round
        schedule, so per-shard access counts and rounds are identical."""
        repo = synthetic_repository(6, 80, seed=17)

        def per_shard(executor):
            sharded = ShardedRepository.split(repo, 3)
            result = sharded_top_k(
                sharded, QUERY, 5, executor=executor, round_budget=budget
            )
            return [
                (r.shard, r.iterations, r.rounds, stats_tuple(r.stats))
                for r in result.per_shard
            ]

        assert per_shard("serial") == per_shard("process")

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
            return ShardFrontier(
                shard=shard,
                top_lowers=lowers,
                max_live_upper=1.0,
                n_live=1,
                done=False,
                iterations=0,
            )

        frontier.observe(summary(0, (0.9, 0.5)))
        assert frontier.floor == float("-inf")  # only 2 bounds so far
        frontier.observe(summary(1, (0.8, 0.7)))
        assert frontier.floor == 0.7
        # Re-observation replaces, never accumulates.
        frontier.observe(summary(1, (0.95, 0.1)))
        assert frontier.floor == 0.5


class TestEngineDispatch:
    def engines(self, n_shards=2):
        repo = synthetic_repository(5, 60, seed=31)
        cfg = RankingConfig(require_exact_scores=True)
        single = OfflineEngine(config=cfg, repository=repo)
        sharded = OfflineEngine(
            config=cfg, repository=ShardedRepository.split(repo, n_shards)
        )
        return single, sharded

    def test_sharded_engine_matches_single(self):
        single, sharded = self.engines()
        a = single.top_k(QUERY, 5)
        b = sharded.top_k(QUERY, 5)
        assert isinstance(b, DistributedTopKResult)
        assert sharded.localized(b) == single.localized(a)

    def test_baselines_refuse_sharded_repository(self):
        _, sharded = self.engines()
        for algorithm in ("fa", "pq-traverse", "rvaq-noskip"):
            with pytest.raises(ConfigurationError, match="merge"):
                sharded.top_k(QUERY, 5, algorithm=algorithm)

    def test_single_result_not_localizable_against_shards(self):
        single, sharded = self.engines()
        result = single.top_k(QUERY, 5)
        with pytest.raises(ConfigurationError):
            sharded.localized(result)


class TestValidation:
    def test_bad_arguments(self):
        sharded = ShardedRepository.split(
            synthetic_repository(2, 20, seed=1), 2
        )
        with pytest.raises(ConfigurationError):
            sharded_top_k(sharded, QUERY, 0)
        with pytest.raises(ConfigurationError):
            sharded_top_k(sharded, QUERY, 5, round_budget=0)
        # "thread" stepped pure-Python RVAQ under the GIL and is gone.
        for executor in ("bogus", "thread"):
            with pytest.raises(ConfigurationError, match="unknown executor"):
                sharded_top_k(sharded, QUERY, 5, executor=executor)

    def test_unconverged_finish_refused(self):
        from repro.core.distributed import ShardSearch

        repo = synthetic_repository(2, 40, seed=1)
        search = ShardSearch(repo, QUERY, 3)
        with pytest.raises(QueryError, match="converged"):
            search.finish()
