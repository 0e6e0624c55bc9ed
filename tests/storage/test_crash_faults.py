"""Crash-safe persistence and fault-tolerant batch ingestion.

The save path must never corrupt a previously saved repository, the load
path must refuse torn state with a clear error, and ``ingest_many`` must
salvage per-video outcomes (and their cost charges) when models flap.
"""

from __future__ import annotations

import json

import pytest

import repro.storage.repository as repository_module
from repro.core.config import OnlineConfig
from repro.core.engine import OfflineEngine
from repro.errors import IngestBatchError, ModelGaveUpError, StorageError
from repro.storage.ingest import (
    VideoIngest,
    ingest_many,
    retry_failed,
)
from repro.storage.columns import ColumnArenaWriter
from repro.storage.repository import VideoRepository, _unique_safe_names
from repro.storage.sharded import describe
from repro.storage.table import ClipScoreTable
from repro.detectors.faults import FaultProfile, FaultyTracker, faulty_zoo
from repro.detectors.zoo import ModelZoo, default_zoo
from repro.utils.intervals import IntervalSet

from tests.conftest import make_kitchen_video

OBJECTS = ["faucet"]
ACTIONS = ["washing dishes"]

#: Shallow retry budget over a flaky profile: individual videos fail, but
#: a later round (fresh attempt draws) can succeed.
FLAKY = FaultProfile(
    name="ingest-flaky", transient_rate=0.04, timeout_rate=0.02, seed=11,
)

INGEST_CONFIG = OnlineConfig(cache_detections=False, retry_max_attempts=2)


def fake_ingest(video_id: str, n_clips: int = 6) -> VideoIngest:
    rows = [(cid, cid * 0.1) for cid in range(n_clips)]
    return VideoIngest(
        video_id=video_id,
        n_clips=n_clips,
        object_tables={"car": ClipScoreTable("car", rows)},
        action_tables={"jumping": ClipScoreTable("jumping", rows)},
        object_sequences={"car": IntervalSet([(0, n_clips // 2)])},
        action_sequences={"jumping": IntervalSet([(1, n_clips - 1)])},
    )


def small_videos(n: int):
    return [
        make_kitchen_video(seed=60 + i, duration_s=40.0, video_id=f"vid-{i}")
        for i in range(n)
    ]


class BrokenVideo:
    """A poisoned batch element: touching its metadata explodes, the way a
    corrupt container or unreadable file would mid-ingest."""

    video_id = "broken"

    @property
    def meta(self):
        raise RuntimeError("container is corrupt")

    @property
    def truth(self):
        raise RuntimeError("container is corrupt")


class TestCrashDuringSave:
    def assert_same_repo(self, loaded: VideoRepository, n_clips: int = 6):
        assert set(loaded.video_ids) == {"a", "b"}
        assert loaded.ingest_of("a").n_clips == n_clips

    def repo(self):
        repo = VideoRepository()
        repo.add(fake_ingest("a"))
        repo.add(fake_ingest("b"))
        return repo

    def test_kill_mid_save_keeps_previous_repository(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "repo"
        repo = self.repo()
        repo.save(target)

        calls = {"n": 0}
        real = ColumnArenaWriter.append

        def dying(self, column):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt("killed mid-save")
            return real(self, column)

        monkeypatch.setattr(ColumnArenaWriter, "append", dying)
        bigger = self.repo()
        bigger.add(fake_ingest("c"))
        with pytest.raises(KeyboardInterrupt):
            bigger.save(target)
        monkeypatch.undo()
        # The interrupted save left no staging residue and the old
        # repository loads bit-intact.
        assert not list(tmp_path.glob("repo.saving-*"))
        self.assert_same_repo(VideoRepository.load(target))

    def test_kill_during_fresh_save_leaves_no_target(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "repo"

        def dying(*args, **kwargs):
            raise KeyboardInterrupt("killed mid-save")

        monkeypatch.setattr(ColumnArenaWriter, "append", dying)
        with pytest.raises(KeyboardInterrupt):
            self.repo().save(target)
        monkeypatch.undo()
        assert not target.exists()
        with pytest.raises(StorageError, match="manifest"):
            VideoRepository.load(target)

    def test_overwrite_is_all_or_nothing(self, tmp_path, monkeypatch):
        """A crash while overwriting must yield either the old or the new
        repository — here the old one, since staging never completed."""
        target = tmp_path / "repo"
        self.repo().save(target)
        monkeypatch.setattr(
            repository_module,
            "_promote",
            lambda staging, root: (_ for _ in ()).throw(
                OSError("swap failed")
            ),
        )
        bigger = self.repo()
        bigger.add(fake_ingest("c"))
        with pytest.raises(OSError):
            bigger.save(target)
        monkeypatch.undo()
        self.assert_same_repo(VideoRepository.load(target))


class TestTornStateDetection:
    def saved(self, tmp_path) -> tuple[VideoRepository, object]:
        repo = VideoRepository()
        repo.add(fake_ingest("a"))
        target = tmp_path / "repo"
        repo.save(target)
        return repo, target

    def test_truncated_manifest_rejected(self, tmp_path):
        _, target = self.saved(tmp_path)
        manifest = (target / "manifest.json").read_text()
        (target / "manifest.json").write_text(manifest[: len(manifest) // 2])
        with pytest.raises(StorageError, match="torn or interrupted"):
            VideoRepository.load(target)

    @pytest.mark.parametrize("name", ["columns.bin", "a.json"])
    def test_missing_data_file_rejected(self, tmp_path, name):
        _, target = self.saved(tmp_path)
        (target / name).unlink()
        with pytest.raises(StorageError, match="missing"):
            VideoRepository.load(target)

    def test_corrupted_data_file_rejected(self, tmp_path):
        """``load`` checks the arena's size, not its bytes (that is what
        keeps it O(manifest)); the audit behind ``repro repo info``
        streams them through sha256."""
        _, target = self.saved(tmp_path)
        blob = bytearray((target / "columns.bin").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (target / "columns.bin").write_bytes(bytes(blob))
        VideoRepository.load(target)  # same size: opens, as documented
        with pytest.raises(StorageError, match="checksum mismatch for columns.bin"):
            describe(target)
        (target / "columns.bin").write_bytes(bytes(blob[:-8]))
        with pytest.raises(StorageError, match="torn or truncated"):
            VideoRepository.load(target)

    def test_corrupted_meta_rejected(self, tmp_path):
        _, target = self.saved(tmp_path)
        meta = (target / "a.json").read_text()
        (target / "a.json").write_text(meta + " ")
        with pytest.raises(StorageError, match="checksum mismatch"):
            VideoRepository.load(target)


class TestSafeNameCollisions:
    def test_colliding_ids_get_distinct_stems(self):
        names = _unique_safe_names(["a/b", "a:b", "plain"])
        assert names["plain"] == "plain"
        assert names["a/b"] != names["a:b"]
        assert all(stem.startswith("a_b-") for stem in
                   (names["a/b"], names["a:b"]))

    def test_colliding_ids_roundtrip_through_disk(self, tmp_path):
        """Before the fix the later video silently overwrote the earlier
        one's arrays; both must survive a save/load cycle."""
        repo = VideoRepository()
        repo.add(fake_ingest("a/b", n_clips=4))
        repo.add(fake_ingest("a:b", n_clips=9))
        target = tmp_path / "repo"
        repo.save(target)
        loaded = VideoRepository.load(target)
        assert set(loaded.video_ids) == {"a/b", "a:b"}
        assert loaded.ingest_of("a/b").n_clips == 4
        assert loaded.ingest_of("a:b").n_clips == 9

    def test_unambiguous_ids_keep_plain_stems(self, tmp_path):
        repo = VideoRepository()
        repo.add(fake_ingest("a"))
        target = tmp_path / "repo"
        repo.save(target)
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["videos"][0]["meta"] == "a.json"


class TestIngestManyOutcomes:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_capture_isolates_poisoned_video(self, executor):
        videos = small_videos(2)
        batch = [videos[0], BrokenVideo(), videos[1]]
        zoo = default_zoo(seed=5)
        outcomes = ingest_many(
            batch, zoo, OBJECTS, ACTIONS, config=INGEST_CONFIG,
            executor=executor, on_error="capture",
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert isinstance(outcomes[1].error, RuntimeError)
        assert outcomes[0].ingest.video_id == "vid-0"
        # completed ingests were paid for and the meter kept the charges
        assert zoo.cost_meter.units() > 0

    def test_raise_carries_salvageable_outcomes(self):
        videos = small_videos(1)
        with pytest.raises(IngestBatchError) as info:
            ingest_many(
                [videos[0], BrokenVideo()],
                default_zoo(seed=5), OBJECTS, ACTIONS, config=INGEST_CONFIG,
            )
        outcomes = info.value.outcomes
        assert [o.ok for o in outcomes] == [True, False]
        assert outcomes[0].ingest is not None  # the success is salvageable

    def test_clean_batch_still_returns_plain_ingests(self):
        videos = small_videos(1)
        result = ingest_many(
            videos, default_zoo(seed=5), OBJECTS, ACTIONS,
            config=INGEST_CONFIG,
        )
        assert isinstance(result[0], VideoIngest)

    def test_faulty_zoo_failures_keep_partial_charges(self):
        """A giveup mid-ingest ships the partial cost back with the error."""
        zoo = faulty_zoo(
            default_zoo(seed=5),
            FaultProfile(name="dead", dead_labels=("faucet",), seed=11),
        )
        outcomes = ingest_many(
            small_videos(1), zoo, OBJECTS, ACTIONS, config=INGEST_CONFIG,
            on_error="capture",
        )
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, ModelGaveUpError)
        assert zoo.cost_meter.giveups() > 0

    def test_retry_failed_converges_on_transient_faults(self):
        zoo = faulty_zoo(default_zoo(seed=5), FLAKY)
        outcomes = ingest_many(
            small_videos(2), zoo, OBJECTS, ACTIONS, config=INGEST_CONFIG,
            on_error="capture",
        )
        rounds = 0
        while any(not o.ok for o in outcomes) and rounds < 8:
            outcomes = retry_failed(
                outcomes, zoo, OBJECTS, ACTIONS, config=INGEST_CONFIG
            )
            rounds += 1
        assert all(o.ok for o in outcomes), "retries never converged"
        assert [o.video_id for o in outcomes] == ["vid-0", "vid-1"]
        assert zoo.cost_meter.retries() > 0

    def test_retry_failed_passes_successes_through(self):
        videos = small_videos(1)
        zoo = default_zoo(seed=5)
        outcomes = ingest_many(
            videos, zoo, OBJECTS, ACTIONS, config=INGEST_CONFIG,
            on_error="capture",
        )
        again = retry_failed(outcomes, zoo, OBJECTS, ACTIONS)
        assert again[0].ingest is outcomes[0].ingest  # not re-paid


def zoo_with_faulty_tracker(profile: FaultProfile) -> ModelZoo:
    """Only the tracker misbehaves, so every retry and give-up is its own."""
    zoo = default_zoo(seed=5)
    return ModelZoo(
        detector=zoo.detector,
        recognizer=zoo.recognizer,
        tracker=FaultyTracker(zoo.tracker, profile),
        cost_meter=zoo.cost_meter,
    )


class TestTrackerVideoCallFaults:
    """At ingest the tracker's fault unit is the (video, label) call."""

    LABELS = ["faucet", "person"]
    RETRYING = OnlineConfig(retry_max_attempts=12)

    @pytest.mark.parametrize(
        "profile",
        [
            FaultProfile(name="t", transient_rate=0.3, timeout_rate=0.3, seed=3),
            FaultProfile(name="nan", nan_rate=0.6, seed=3),
        ],
        ids=["raises", "corrupts"],
    )
    def test_retried_through_the_boundary_and_charged_once(self, profile):
        video = small_videos(1)[0]
        clean_zoo = default_zoo(seed=5)
        [clean] = ingest_many([video], clean_zoo, self.LABELS, ACTIONS)
        zoo = zoo_with_faulty_tracker(profile)
        [ingest] = ingest_many(
            [video], zoo, self.LABELS, ACTIONS, config=self.RETRYING
        )
        tracker = zoo.tracker.name
        assert zoo.tracker.injected_faults > 0
        # every failed attempt was retried, and none of them was charged
        assert zoo.cost_meter.retries(tracker) == zoo.tracker.injected_faults
        assert zoo.cost_meter.retries() == zoo.cost_meter.retries(tracker)
        assert zoo.cost_meter.units(tracker) == (
            video.meta.usable_frames * len(self.LABELS)
        )
        assert zoo.cost_meter.units() == clean_zoo.cost_meter.units()
        assert zoo.cost_meter.ms() == clean_zoo.cost_meter.ms()
        for label in self.LABELS:
            got = ingest.table_for(label).export_columns()
            want = clean.table_for(label).export_columns()
            assert [c.tobytes() for c in got] == [c.tobytes() for c in want]

    def test_give_up_is_metered_and_lands_in_the_outcome(self):
        zoo = zoo_with_faulty_tracker(
            FaultProfile(name="down", transient_rate=0.99, seed=3)
        )
        [outcome] = ingest_many(
            small_videos(1), zoo, self.LABELS, ACTIONS,
            config=OnlineConfig(retry_max_attempts=2), on_error="capture",
        )
        assert not outcome.ok
        assert isinstance(outcome.error, ModelGaveUpError)
        assert "tracker on vid-0/faucet" in str(outcome.error)
        tracker = zoo.tracker.name
        assert zoo.cost_meter.giveups(tracker) == 1
        assert zoo.cost_meter.retries(tracker) == 1
        assert zoo.cost_meter.units(tracker) == 0


class TestOfflineEngineCapture:
    def test_capture_adds_only_successes(self):
        engine = OfflineEngine(zoo=default_zoo(seed=5))
        videos = small_videos(1)
        outcomes = engine.ingest_many(
            [videos[0], BrokenVideo()], OBJECTS, ACTIONS, on_error="capture",
        )
        assert [o.ok for o in outcomes] == [True, False]
        assert engine.repository.video_ids == ("vid-0",)

    def test_raise_mode_returns_none(self):
        engine = OfflineEngine(zoo=default_zoo(seed=5))
        assert engine.ingest_many(small_videos(1), OBJECTS, ACTIONS) is None
        assert engine.repository.n_videos == 1
