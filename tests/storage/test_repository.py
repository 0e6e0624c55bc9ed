"""Multi-video repository: global ids, caching, persistence."""

from __future__ import annotations

import pytest

from repro.core.config import RankingConfig
from repro.core.query import Query
from repro.core.rvaq import RVAQ
from repro.core.scoring import PaperScoring
from repro.errors import StorageError
from repro.storage.ingest import VideoIngest
from repro.storage.repository import VideoRepository
from repro.storage.sharded import describe
from repro.storage.synth import SYNTH_ACTION, SYNTH_OBJECT, synthetic_repository
from repro.storage.table import ClipScoreTable
from repro.utils.intervals import IntervalSet

QUERY = Query(objects=[SYNTH_OBJECT], action=SYNTH_ACTION)


def fake_ingest(video_id: str, n_clips: int, score_offset: float = 0.0) -> VideoIngest:
    """A hand-built ingest, independent of detectors (unit-test isolation)."""
    rows = [(cid, score_offset + cid * 0.1) for cid in range(n_clips)]
    return VideoIngest(
        video_id=video_id,
        n_clips=n_clips,
        object_tables={"car": ClipScoreTable("car", rows)},
        action_tables={"jumping": ClipScoreTable("jumping", rows)},
        object_sequences={"car": IntervalSet([(0, n_clips // 2)])},
        action_sequences={"jumping": IntervalSet([(1, n_clips - 1)])},
    )


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
def repo() -> VideoRepository:
    repository = VideoRepository()
    repository.add(fake_ingest("a", 10))
    repository.add(fake_ingest("b", 5, score_offset=10.0))
    return repository


class TestMembership:
    def test_duplicate_add_rejected(self, repo):
        with pytest.raises(StorageError):
            repo.add(fake_ingest("a", 3))

    def test_counts(self, repo):
        assert repo.n_videos == 2
        assert repo.total_clips == 15


class TestIdTranslation:
    def test_gap_id_is_unmapped(self, repo):
        with pytest.raises(StorageError):
            repo.to_local(10)  # the gap between video a and b

    def test_every_clip_maps_back_in_order(self, repo):
        local = [repo.to_local(cid) for cid in repo.all_clips().points()]
        assert local == [("a", c) for c in range(10)] + [("b", c) for c in range(5)]

    def test_a_video_added_later_starts_past_a_gap(self, repo):
        repo.add(fake_ingest("c", 3))
        assert repo.all_clips().as_tuples() == [(0, 9), (11, 15), (17, 19)]
        assert repo.to_local(17) == ("c", 0)
        with pytest.raises(StorageError):
            repo.to_local(16)


class TestRepositoryMetadata:
    def test_merged_table(self, repo):
        table = repo.table("car")
        assert len(table) == 15
        # b's shifted rows keep their scores
        assert table.random_access(11) == pytest.approx(10.0)

    def test_sequences_shifted_and_disjoint(self, repo):
        spans = repo.sequences("jumping")
        assert spans.as_tuples() == [(1, 9), (12, 15)]

    def test_all_clips_excludes_gap(self, repo):
        clips = repo.all_clips()
        assert clips.as_tuples() == [(0, 9), (11, 15)]
        assert 10 not in clips

    def test_cache_invalidation_on_change(self, repo):
        before = repo.table("car")
        repo.add(fake_ingest("c", 3))
        after = repo.table("car")
        assert len(after) == len(before) + 3

    def test_result_sequences_memoised_until_membership_changes(self, repo):
        labels = ["jumping", "car"]
        first = repo.result_sequences(labels)
        assert first.as_tuples() == [(1, 5), (12, 13)]
        assert repo.result_sequences(labels) is first  # one sweep per label set
        assert repo.result_sequences(["jumping"]) == repo.sequences("jumping")
        repo.add(fake_ingest("c", 4))
        grown = repo.result_sequences(labels)
        assert grown.as_tuples() == [(1, 5), (12, 13), (18, 19)]

    def test_id_span_covers_gaps(self, repo):
        assert repo.id_span == 17 > repo.total_clips  # 10 + gap + 5 + gap

    def test_missing_label_lenient(self, repo):
        partial = VideoIngest(
            video_id="partial",
            n_clips=4,
            object_tables={},
            action_tables={"jumping": ClipScoreTable("jumping", [(0, 1.0)])},
            object_sequences={},
            action_sequences={"jumping": IntervalSet([(0, 0)])},
        )
        repo.add(partial)
        # car is still queryable; the partial video contributes nothing
        assert len(repo.table("car")) == 15

    def test_totally_unknown_label(self, repo):
        with pytest.raises(StorageError):
            repo.table("zebra")

    def test_empty_repository(self):
        with pytest.raises(StorageError):
            VideoRepository().table("car")


class TestPersistence:
    def test_save_load_roundtrip(self, repo, tmp_path):
        repo.save(tmp_path)
        loaded = VideoRepository.load(tmp_path)
        assert set(loaded.video_ids) == set(repo.video_ids)
        assert loaded.sequences("jumping") == repo.sequences("jumping")
        original = repo.table("car")
        restored = loaded.table("car")
        assert len(restored) == len(original)
        for cid in original.export_columns()[0].tolist():
            assert restored.random_access(cid) == pytest.approx(
                original.random_access(cid)
            )

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            VideoRepository.load(tmp_path / "nowhere")

    def test_describe_single(self, tmp_path):
        repo = synthetic_repository(n_videos=2, n_clips=10, seed=1)
        repo.save(tmp_path / "single", format=3)
        info = describe(tmp_path / "single")
        assert info["sharded"] is False
        assert info["format"] == 3
        assert info["n_videos"] == 2


class TestPersistenceFormat:
    """One format is written and one is read: 3."""

    def test_save_writes_format_3_whether_asked_or_not(self, repo, tmp_path):
        import json

        repo.save(tmp_path / "default")
        repo.save(tmp_path / "explicit", format=3)
        names = sorted(p.name for p in (tmp_path / "default").iterdir())
        assert names == ["a.json", "b.json", "columns.bin", "manifest.json"]
        for name in names:
            assert (tmp_path / "default" / name).read_bytes() == (
                tmp_path / "explicit" / name
            ).read_bytes()
        manifest = json.loads((tmp_path / "default" / "manifest.json").read_text())
        assert manifest["format"] == 3

    def test_save_refuses_any_other_format(self, repo, tmp_path):
        with pytest.raises(StorageError, match="save format 2"):
            repo.save(tmp_path / "old", format=2)
        assert not (tmp_path / "old").exists()

    @pytest.mark.parametrize(
        "version", [2, 4, None, "3"],
        ids=["older", "newer", "missing", "non-int"],
    )
    def test_load_reads_its_own_format_only(self, repo, tmp_path, version):
        import json
        import re

        repo.save(tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        if version is None:
            del manifest["format"]
        else:
            manifest["format"] = version
        path.write_text(json.dumps(manifest))
        with pytest.raises(
            StorageError, match=re.escape(f"manifest.json.format must be 3; got {version!r}")
        ):
            VideoRepository.load(tmp_path)


class TestToLocalBisect:
    def test_boundaries_and_gap(self, repo):
        assert repo.to_local(0) == ("a", 0)
        assert repo.to_local(9) == ("a", 9)
        with pytest.raises(StorageError):
            repo.to_local(10)  # the gap id between "a" and "b"
        assert repo.to_local(11) == ("b", 0)
        assert repo.to_local(15) == ("b", 4)
        with pytest.raises(StorageError):
            repo.to_local(16)  # past the end
        with pytest.raises(StorageError):
            repo.to_local(-1)


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
        cids = original.export_columns()[0].tolist()
        assert [restored.random_access(c) for c in cids] == [
            original.random_access(c) for c in cids
        ]
        # Query-identical through both hops, not just table-identical.
        assert ranked_rows(via_b) == ranked_rows(repo)
