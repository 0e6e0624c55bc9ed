"""The ingestion phase (§4.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import OfflineEngine
from repro.core.scoring import MaxScoring, PaperScoring
from repro.detectors.zoo import default_zoo, ideal_zoo
from repro.errors import ConfigurationError, IngestError
from repro.storage.ingest import VideoIngest, ingest_many, ingest_video
from repro.storage.table import ClipScoreTable
from repro.utils.intervals import IntervalSet
from tests.conftest import make_kitchen_video, outage_video
from tests.reference.ingest_per_clip import ingest_video_per_clip

VIDEO = make_kitchen_video(seed=51, duration_s=240.0, video_id="ingvid")


@pytest.fixture(scope="module")
def ingest(zoo):
    return ingest_video(
        VIDEO, zoo,
        object_labels=["faucet", "person"],
        action_labels=["washing dishes"],
    )


class TestIngest:
    def test_tables_cover_all_clips(self, ingest):
        for label in ("faucet", "person", "washing dishes"):
            table = ingest.table_for(label)
            assert len(table) == VIDEO.meta.n_clips

    def test_object_scores_track_presence(self, ingest, zoo):
        table = ingest.table_for("faucet")
        present_clips = VIDEO.truth.query_clips(
            [], "washing dishes", VIDEO.meta.geometry
        )
        # the best-scoring faucet clip holds real tracked detections
        best_cid, best_score = table.sorted_row(0)
        assert best_score > 0
        faucet_clips = VIDEO.meta.geometry.frame_set_to_clips(
            VIDEO.truth.object_frames("faucet"), min_cover=0.2
        )
        assert best_cid in faucet_clips

    def test_individual_sequences_near_truth(self, ingest):
        found = ingest.sequences_for("washing dishes")
        truth = VIDEO.meta.geometry.frame_set_to_clips(
            VIDEO.truth.action_frames("washing dishes"), min_cover=0.5
        )
        assert found.iou(truth) > 0.6

    def test_unknown_label_raises(self, ingest):
        with pytest.raises(IngestError):
            ingest.table_for("zebra")
        with pytest.raises(IngestError):
            ingest.sequences_for("zebra")

    def test_empty_table_is_still_ingested(self):
        """A table with no rows is falsy (``__len__``) but present."""
        empty = VideoIngest(
            video_id="empty",
            n_clips=0,
            object_tables={"car": ClipScoreTable("car", [])},
            action_tables={"jumping": ClipScoreTable("jumping", [])},
            object_sequences={"car": IntervalSet()},
            action_sequences={"jumping": IntervalSet()},
        )
        assert empty.table_for("car") is empty.object_tables["car"]
        assert empty.table_for("jumping") is empty.action_tables["jumping"]

    def test_labels_listing(self, ingest):
        assert set(ingest.labels) == {"faucet", "person", "washing dishes"}

    def test_ingest_cost_recorded(self, ingest):
        assert ingest.ingest_cost_ms > 0

    def test_duplicate_labels_rejected(self, zoo):
        with pytest.raises(IngestError):
            ingest_video(
                VIDEO, zoo, object_labels=["faucet", "faucet"], action_labels=[]
            )

    def test_alternative_scoring_scheme(self, zoo):
        alt = ingest_video(
            VIDEO, zoo,
            object_labels=["faucet"],
            action_labels=["washing dishes"],
            scoring=MaxScoring(),
        )
        table = alt.table_for("faucet")
        # MaxScoring: per-clip score is one instance's score, bounded by 1
        assert table.max_score <= 1.0


def exact(ingest: VideoIngest) -> list:
    """Everything an ingest holds, with floats compared bit for bit."""
    return [ingest.video_id, ingest.n_clips, ingest.ingest_cost_ms.hex()] + [
        (
            label,
            [col.tobytes() for col in ingest.table_for(label).export_columns()],
            ingest.sequences_for(label).as_tuples(),
        )
        for label in ingest.labels
    ]


def exact_charges(zoo) -> list:
    meter = zoo.cost_meter
    return [
        (model, meter.units(model), meter.ms(model).hex())
        for model in sorted(meter.__getstate__()["ms"])
    ]


OBJECTS = ["faucet", "person", "zebra"]  # zebra: spurious tracks only
ACTIONS = ["washing dishes"]


class TestAgainstPerClipReference:
    """``ingest_video`` asks the tracker once per label and reduces columns;
    the reference asks clip by clip and reduces with the scalar ``h``."""

    @staticmethod
    def assert_bit_identical(videos, zoo_of, zoo_seed, objects, scoring, **pool):
        zoo, want_zoo = zoo_of(seed=zoo_seed), zoo_of(seed=zoo_seed)
        got = ingest_many(videos, zoo, objects, ACTIONS, scoring, **pool)
        want = [
            ingest_video_per_clip(video, want_zoo, objects, ACTIONS, scoring)
            for video in videos
        ]
        assert [exact(g) for g in got] == [exact(w) for w in want]
        assert exact_charges(zoo) == exact_charges(want_zoo)

    @settings(max_examples=12, deadline=None)
    @given(
        video_seed=st.integers(0, 10_000),
        zoo_seed=st.integers(0, 100),
        duration_s=st.sampled_from([8.0, 37.0, 90.0]),
        scoring=st.sampled_from([PaperScoring(), MaxScoring()]),
        zoo_of=st.sampled_from([default_zoo, ideal_zoo]),
    )
    def test_any_video(self, video_seed, zoo_seed, duration_s, scoring, zoo_of):
        video = make_kitchen_video(video_seed, duration_s, f"diff{video_seed}")
        self.assert_bit_identical([video], zoo_of, zoo_seed, OBJECTS, scoring)

    @pytest.mark.parametrize("scoring", [PaperScoring(), MaxScoring()])
    def test_through_an_outage(self, scoring):
        video = outage_video(((10.0, 40.0), (300.0, 360.0)))
        self.assert_bit_identical([video], default_zoo, 2, ["faucet"], scoring)

    @pytest.mark.parametrize("scoring", [PaperScoring(), MaxScoring()])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_every_executor(self, executor, scoring):
        self.assert_bit_identical(
            TestIngestMany.VIDEOS, default_zoo, 9, OBJECTS, scoring,
            executor=executor, max_workers=2,
        )


class TestIngestMany:
    """Parallel ingestion: any executor, same results, same cost books."""

    VIDEOS = [
        make_kitchen_video(seed=61 + i, duration_s=120.0, video_id=f"many{i}")
        for i in range(3)
    ]
    LABELS = dict(object_labels=["faucet"], action_labels=["washing dishes"])

    @staticmethod
    def _fingerprint(ingests, meter):
        rows = []
        for ing in ingests:
            for label in ing.labels:
                cids, scores = ing.table_for(label).as_columns()
                rows.append(
                    (ing.video_id, label, cids.tolist(), scores.tolist(),
                     ing.sequences_for(label).as_tuples())
                )
            rows.append((ing.video_id, round(ing.ingest_cost_ms, 9)))
        rows.append((round(meter.ms(), 9), meter.units()))
        return rows

    @pytest.mark.parametrize("executor", ["thread"])
    def test_matches_serial(self, executor):
        from repro.detectors.zoo import default_zoo

        serial_zoo = default_zoo(seed=9)
        serial = ingest_many(self.VIDEOS, serial_zoo, **self.LABELS)
        par_zoo = default_zoo(seed=9)
        par = ingest_many(
            self.VIDEOS, par_zoo, **self.LABELS,
            executor=executor, max_workers=2,
        )
        assert self._fingerprint(par, par_zoo.cost_meter) == self._fingerprint(
            serial, serial_zoo.cost_meter
        )

    @pytest.mark.parametrize("executor", ["gpu", "process"])
    def test_unknown_executor(self, zoo, executor):
        with pytest.raises(IngestError, match=f"unknown ingest executor '{executor}'"):
            ingest_many([], zoo, **self.LABELS, executor=executor)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_max_workers_must_be_positive(self, executor, max_workers):
        zoo = default_zoo(seed=9)
        with pytest.raises(ConfigurationError, match="max_workers"):
            ingest_many(
                self.VIDEOS[:1], zoo, **self.LABELS,
                executor=executor, max_workers=max_workers,
            )
        assert zoo.cost_meter.ms() == 0.0

    def test_zoo_fork_is_private(self):
        from repro.detectors.zoo import default_zoo

        zoo = default_zoo(seed=4)
        fork = zoo.fork()
        assert fork.cost_meter is not zoo.cost_meter
        assert fork.cost_meter.ms() == 0.0
        before = zoo.cost_meter.ms()
        fork.cost_meter.record("probe", 2, 1.5)
        assert zoo.cost_meter.ms() == before
        zoo.cost_meter.merge(fork.cost_meter)
        assert zoo.cost_meter.ms("probe") == 3.0


class TestRefusedBeforeAnyModelRuns:
    """A duplicate video id, within a batch or against the repository, used
    to be paid for in full and then half applied (or refused with a bare
    ``StorageError`` even under ``on_error="capture"``)."""

    LABELS = TestIngestMany.LABELS
    VIDEO, OTHER = TestIngestMany.VIDEOS[:2]

    @pytest.mark.parametrize("on_error", ["raise", "capture"])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_a_batch_naming_one_video_twice(self, executor, on_error):
        engine = OfflineEngine(zoo=default_zoo(seed=9))
        with pytest.raises(IngestError, match=r"duplicate video ids: \['many0'\]"):
            engine.ingest_many(
                [self.VIDEO, self.OTHER, self.VIDEO], **self.LABELS,
                executor=executor, on_error=on_error,
            )
        assert engine.zoo.cost_meter.ms() == 0.0
        assert engine.repository.video_ids == ()

    def test_the_storage_door_refuses_a_batch_naming_one_video_twice(self):
        zoo = default_zoo(seed=9)
        with pytest.raises(IngestError, match=r"duplicate video ids: \['many0'\]"):
            ingest_many([self.VIDEO, self.VIDEO], zoo, **self.LABELS)
        assert zoo.cost_meter.ms() == 0.0

    @pytest.mark.parametrize("door", ["ingest", "ingest_many"])
    def test_a_video_already_in_the_repository(self, door):
        engine = OfflineEngine(zoo=default_zoo(seed=9))
        engine.ingest(self.VIDEO, **self.LABELS)
        engine.zoo.cost_meter.reset()
        before = engine.repository.video_ids
        again = self.VIDEO if door == "ingest" else [self.OTHER, self.VIDEO]
        with pytest.raises(IngestError, match=r"already ingested: \['many0'\]"):
            getattr(engine, door)(again, **self.LABELS)
        assert engine.zoo.cost_meter.ms() == 0.0
        assert engine.repository.video_ids == before == ("many0",)
