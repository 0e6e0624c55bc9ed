"""Sharded repository: deterministic routing, tree persistence, refusal.

The shard tree must behave as one corpus (`split` / `merged` round-trip,
global ingestion order preserved), persist atomically with format-3
shards, and *refuse* torn state: a corrupted shard manifest, a corrupted
top-level manifest, or a tree that disagrees with its manifest must all
raise :class:`~repro.errors.StorageError` rather than load partially.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import RankingConfig
from repro.core.query import Query
from repro.core.rvaq import RVAQ
from repro.core.scoring import PaperScoring
from repro.errors import StorageError
from repro.storage.repository import VideoRepository
from repro.storage.sharded import (
    ShardedRepository,
    ShardManifest,
    describe,
    is_sharded,
    route_ingests,
    shard_of,
)
from repro.storage.synth import (
    SYNTH_ACTION,
    SYNTH_OBJECT,
    synthetic_ingest,
    synthetic_repository,
)

QUERY = Query(objects=[SYNTH_OBJECT], action=SYNTH_ACTION)


def ranked_rows(repo: VideoRepository, k: int = 5):
    """Localized exact-score RVAQ rows — the repository-equality oracle."""
    cfg = RankingConfig(require_exact_scores=True)
    result = RVAQ(repo, PaperScoring(), cfg).top_k(QUERY, k)
    rows = []
    for r in result.ranked:
        video_id, start = repo.to_local(r.interval.start)
        _, end = repo.to_local(r.interval.end)
        rows.append((video_id, start, end, r.score))
    return rows


@pytest.fixture()
def sharded(tmp_path) -> ShardedRepository:
    repo = synthetic_repository(n_videos=8, n_clips=30, seed=3)
    return ShardedRepository.split(repo, 4)


class TestRouting:
    def test_shard_of_is_stable(self):
        # Pinned values: the routing is a content hash, so these may only
        # change if the hash function does — which would strand every
        # previously saved shard tree.
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
        for video_id in sharded.video_ids:
            shard = shard_of(video_id, sharded.n_shards)
            assert sharded.shard_index_of(video_id) == shard
            assert video_id in sharded.shards[shard].video_ids

    def test_route_ingests_matches_shard_of(self):
        import numpy as np

        rng = np.random.default_rng(0)
        ingests = [synthetic_ingest(f"v{i}", 10, rng) for i in range(12)]
        buckets = route_ingests(ingests, 3)
        for shard, bucket in enumerate(buckets):
            for ingest in bucket:
                assert shard_of(ingest.video_id, 3) == shard

    def test_duplicate_add_rejected(self, sharded):
        import numpy as np

        rng = np.random.default_rng(1)
        with pytest.raises(StorageError):
            sharded.add(synthetic_ingest("v0", 5, rng))

    def test_remove(self, sharded):
        sharded.remove("v0")
        assert "v0" not in sharded.video_ids
        with pytest.raises(StorageError):
            sharded.remove("v0")
        with pytest.raises(StorageError):
            sharded.shard_index_of("v0")


class TestSplitAndMerge:
    def test_split_preserves_global_order(self):
        repo = synthetic_repository(n_videos=6, n_clips=20, seed=5)
        sharded = ShardedRepository.split(repo, 3)
        assert sharded.video_ids == repo.video_ids
        assert sharded.total_clips == repo.total_clips
        order = sharded.global_order()
        assert [order[v] for v in repo.video_ids] == list(range(6))

    def test_merged_reproduces_single_repository(self):
        repo = synthetic_repository(n_videos=6, n_clips=40, seed=5)
        merged = ShardedRepository.split(repo, 4).merged()
        assert merged.video_ids == repo.video_ids
        # The merged view must be query-identical, not just id-identical.
        assert ranked_rows(merged) == ranked_rows(repo)

    def test_empty_shards_are_fine(self):
        # v0..v7 over 4 shards leaves shard 0 empty (pinned routing above).
        repo = synthetic_repository(n_videos=8, n_clips=10, seed=2)
        sharded = ShardedRepository.split(repo, 4)
        assert sharded.shards[0].n_videos == 0
        assert sharded.merged().video_ids == repo.video_ids


class TestPersistence:
    def test_save_load_roundtrip(self, sharded, tmp_path):
        target = tmp_path / "tree"
        sharded.save(target)
        assert sharded.path == target.resolve()
        assert is_sharded(target) and not is_sharded(tmp_path)
        loaded = ShardedRepository.load(target)
        assert loaded.video_ids == sharded.video_ids
        assert loaded.total_clips == sharded.total_clips
        for video_id in sharded.video_ids:
            assert loaded.shard_index_of(video_id) == sharded.shard_index_of(
                video_id
            )
        assert ranked_rows(loaded.merged()) == ranked_rows(sharded.merged())

    def test_shards_persist_in_format_3(self, sharded, tmp_path):
        target = tmp_path / "tree"
        sharded.save(target)
        for shard_dir in ShardedRepository.shard_paths(target):
            manifest = json.loads((shard_dir / "manifest.json").read_text())
            assert manifest["format"] == 3
            assert (shard_dir / "columns.bin").exists()

    def test_mutation_invalidates_saved_path(self, sharded, tmp_path):
        import numpy as np

        sharded.save(tmp_path / "tree")
        sharded.add(synthetic_ingest("extra", 5, np.random.default_rng(9)))
        assert sharded.path is None  # in-memory state diverged from disk

    def test_describe_sharded(self, sharded, tmp_path):
        target = tmp_path / "tree"
        sharded.save(target)
        info = describe(target)
        assert info["sharded"] is True
        assert info["n_shards"] == 4
        assert info["n_videos"] == 8
        assert sum(info["videos_per_shard"]) == 8
        assert sum(info["clips_per_shard"]) == sharded.total_clips

    def test_describe_single(self, tmp_path):
        repo = synthetic_repository(n_videos=2, n_clips=10, seed=1)
        repo.save(tmp_path / "single", format=3)
        info = describe(tmp_path / "single")
        assert info["sharded"] is False
        assert info["format"] == 3
        assert info["n_videos"] == 2


class TestTornTreeRefusal:
    def test_corrupt_shard_manifest_refused(self, sharded, tmp_path):
        target = tmp_path / "tree"
        sharded.save(target)
        victim = ShardedRepository.shard_paths(target)[1]
        (victim / "manifest.json").write_text('{"format": 3, "videos"')
        with pytest.raises(StorageError):
            ShardedRepository.load(target)
        # Siblings are untouched: every other shard still opens cleanly.
        for shard_dir in ShardedRepository.shard_paths(target):
            if shard_dir != victim:
                VideoRepository.load(shard_dir)

    def test_corrupt_top_manifest_refused(self, sharded, tmp_path):
        target = tmp_path / "tree"
        sharded.save(target)
        (target / "shard-manifest.json").write_text('{"format": "shar')
        with pytest.raises(StorageError):
            ShardedRepository.load(target)

    def test_missing_manifest_refused(self, tmp_path):
        with pytest.raises(StorageError):
            ShardedRepository.load(tmp_path / "nowhere")

    def test_manifest_video_not_on_disk_refused(self, sharded, tmp_path):
        target = tmp_path / "tree"
        sharded.save(target)
        state = json.loads((target / "shard-manifest.json").read_text())
        state["video_order"].append("ghost")
        state["assignment"]["ghost"] = 0
        (target / "shard-manifest.json").write_text(json.dumps(state))
        with pytest.raises(StorageError, match="does not match"):
            ShardedRepository.load(target)

    def test_misassigned_video_refused(self, sharded, tmp_path):
        target = tmp_path / "tree"
        sharded.save(target)
        state = json.loads((target / "shard-manifest.json").read_text())
        video_id = state["video_order"][0]
        state["assignment"][video_id] = (
            state["assignment"][video_id] + 1
        ) % state["n_shards"]
        (target / "shard-manifest.json").write_text(json.dumps(state))
        with pytest.raises(StorageError, match="manifest-assigned"):
            ShardedRepository.load(target)


class TestManifestState:
    """RL002 surface: the manifest round-trips all of its state."""

    def manifest(self) -> ShardManifest:
        return ShardManifest(
            n_shards=2,
            shard_dirs=["shard-000", "shard-001"],
            video_order=["a", "b"],
            assignment={"a": shard_of("a", 2), "b": shard_of("b", 2)},
        )

    def test_state_roundtrip(self):
        manifest = self.manifest()
        assert ShardManifest.from_state_dict(manifest.state_dict()) == manifest

    def test_wrong_format_refused(self):
        with pytest.raises(StorageError, match="shard manifest.format must be 'sharded-1'; got 2"):
            ShardManifest.from_state_dict({"format": 2})

    def test_missing_key_refused(self):
        state = self.manifest().state_dict()
        del state["assignment"]
        with pytest.raises(StorageError, match="assignment"):
            ShardManifest.from_state_dict(state)

    def test_dir_count_mismatch_refused(self):
        state = self.manifest().state_dict()
        state["shard_dirs"] = ["shard-000"]
        with pytest.raises(StorageError, match="shard directories"):
            ShardManifest.from_state_dict(state)

    def test_out_of_range_assignment_refused(self):
        state = self.manifest().state_dict()
        state["assignment"]["a"] = 9
        with pytest.raises(StorageError, match="outside"):
            ShardManifest.from_state_dict(state)

    def test_order_assignment_disagreement_refused(self):
        state = self.manifest().state_dict()
        state["video_order"] = ["a"]
        with pytest.raises(StorageError, match="disagree"):
            ShardManifest.from_state_dict(state)


class TestFormatRoundTrip:
    """A repository opened from its memory map saves like the original."""

    def test_resave_of_a_loaded_repository_roundtrips(self, tmp_path):
        repo = synthetic_repository(n_videos=4, n_clips=25, seed=11)
        repo.save(tmp_path / "a")
        via_a = VideoRepository.load(tmp_path / "a")
        via_a.save(tmp_path / "b")
        via_b = VideoRepository.load(tmp_path / "b")
        assert via_b.video_ids == repo.video_ids
        assert via_b.sequences(SYNTH_ACTION) == repo.sequences(SYNTH_ACTION)
        original = repo.table(SYNTH_OBJECT)
        restored = via_b.table(SYNTH_OBJECT)
        assert len(restored) == len(original)
        cids = list(original.clip_ids())
        assert [restored.random_access(c) for c in cids] == [
            original.random_access(c) for c in cids
        ]
        # Query-identical through both hops, not just table-identical.
        assert ranked_rows(via_b) == ranked_rows(repo)
