"""Sharded repository: deterministic routing and the in-memory split.

The shards must behave as one corpus: `split` / `merged` round-trip, and
the global ingestion order is preserved.
"""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.storage.repository import VideoRepository
from repro.storage.sharded import ShardedRepository, shard_of
from repro.storage.synth import synthetic_ingest, synthetic_repository
from tests.storage.test_repository import ranked_rows


@pytest.fixture()
def sharded(tmp_path) -> ShardedRepository:
    repo = synthetic_repository(n_videos=8, n_clips=30, seed=3)
    return ShardedRepository.split(repo, 4)


class TestRouting:
    def test_shard_of_is_stable(self):
        # Pinned values: the routing is a content hash, so these may only
        # change if the hash function does — which would re-route every
        # split.
        assert [shard_of(f"v{i}", 4) for i in range(8)] == [3, 2, 1, 2, 2, 3, 2, 3]
        assert [shard_of(f"v{i}", 2) for i in range(8)] == [1, 0, 1, 0, 0, 1, 0, 1]

    def test_shard_of_in_range(self):
        for n in (1, 2, 3, 7):
            for i in range(50):
                assert 0 <= shard_of(f"video-{i}", n) < n

    def test_shard_of_rejects_bad_count(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            shard_of("v", 0)

    def test_add_routes_by_key(self, sharded):
        for video_id in sharded.global_order():
            shard = shard_of(video_id, sharded.n_shards)
            assert sharded.shard_index_of(video_id) == shard
            assert video_id in sharded.shards[shard].video_ids

    def test_duplicate_add_rejected(self, sharded):
        import numpy as np

        rng = np.random.default_rng(1)
        with pytest.raises(StorageError):
            sharded.add(synthetic_ingest("v0", 5, rng))


def merged_repository(sharded: ShardedRepository) -> VideoRepository:
    """A single repository holding every video in global order."""
    merged = VideoRepository()
    for ingest in sharded.iter_ingests():
        merged.add(ingest)
    return merged


class TestSplitAndMerge:
    def test_split_preserves_global_order(self):
        repo = synthetic_repository(n_videos=6, n_clips=20, seed=5)
        sharded = ShardedRepository.split(repo, 3)
        assert sum(shard.total_clips for shard in sharded.shards) == repo.total_clips
        order = sharded.global_order()
        assert [order[v] for v in repo.video_ids] == list(range(6))

    def test_merged_reproduces_single_repository(self):
        repo = synthetic_repository(n_videos=6, n_clips=40, seed=5)
        merged = merged_repository(ShardedRepository.split(repo, 4))
        assert merged.video_ids == repo.video_ids
        # The merged view must be query-identical, not just id-identical.
        assert ranked_rows(merged) == ranked_rows(repo)

    def test_empty_shards_are_fine(self):
        # v0..v7 over 4 shards leaves shard 0 empty (pinned routing above).
        repo = synthetic_repository(n_videos=8, n_clips=10, seed=2)
        sharded = ShardedRepository.split(repo, 4)
        assert sharded.shards[0].n_videos == 0
        assert merged_repository(sharded).video_ids == repo.video_ids
