"""Relationship predicates (footnote 2): derivation and query execution."""

from __future__ import annotations

import pytest

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.core.engine import OnlineEngine
from repro.errors import GroundTruthError
from repro.eval.metrics import match_sequences
from repro.video.relationships import derive_relationship
from repro.video.synthesis import LabeledVideo
from tests.conftest import make_kitchen_video

BASE = make_kitchen_video(seed=61, video_id="relvid")


def with_relationship(hold_fraction: float = 0.7) -> LabeledVideo:
    truth = derive_relationship(
        BASE.truth, "person_near_faucet", "person", "faucet",
        hold_fraction=hold_fraction, seed=1,
    )
    return LabeledVideo(meta=BASE.meta, truth=truth)


class TestDerivation:
    def test_relationship_inside_copresence(self):
        video = with_relationship()
        rel = video.truth.object_frames("person_near_faucet")
        co = video.truth.object_frames("person").intersect(
            video.truth.object_frames("faucet")
        )
        assert rel.intersect(co).total_length == rel.total_length

    def test_hold_fraction_respected(self):
        video = with_relationship(hold_fraction=0.5)
        rel = video.truth.object_frames("person_near_faucet")
        co = video.truth.object_frames("person").intersect(
            video.truth.object_frames("faucet")
        )
        assert rel.total_length <= co.total_length
        assert rel.total_length >= int(0.3 * co.total_length)

    def test_full_hold(self):
        video = with_relationship(hold_fraction=1.0)
        rel = video.truth.object_frames("person_near_faucet")
        co = video.truth.object_frames("person").intersect(
            video.truth.object_frames("faucet")
        )
        assert rel == co

    def test_deterministic(self):
        a = with_relationship().truth.object_frames("person_near_faucet")
        b = with_relationship().truth.object_frames("person_near_faucet")
        assert a == b

    def test_duplicate_label_rejected(self):
        with pytest.raises(GroundTruthError):
            derive_relationship(BASE.truth, "person", "person", "faucet")

    def test_invalid_fraction(self):
        with pytest.raises(GroundTruthError):
            derive_relationship(
                BASE.truth, "x", "person", "faucet", hold_fraction=0.0
            )

    def test_disjoint_objects_yield_empty(self):
        truth = derive_relationship(
            BASE.truth, "person_near_nothing", "person", "zebra"
        )
        assert not truth.object_frames("person_near_nothing")


class TestQueryExecution:
    def test_relationship_predicate_end_to_end(self, zoo):
        video = with_relationship()
        query = Query(
            action="washing dishes", relationships=["person_near_faucet"]
        )
        truth = video.truth.query_clips(
            query.frame_level_labels, "washing dishes", video.meta.geometry
        )
        result = OnlineEngine(zoo).run(query, video)
        report = match_sequences(result.sequences, truth)
        assert report.f1 >= 0.5

    def test_relationship_tightens_results(self, zoo):
        """Adding the relationship constraint can only shrink (or keep) the
        matched content relative to the plain action query."""
        video = with_relationship(hold_fraction=0.4)
        engine = OnlineEngine(zoo, OnlineConfig())
        plain = engine.run(Query(action="washing dishes"), video)
        constrained = engine.run(
            Query(action="washing dishes",
                  relationships=["person_near_faucet"]),
            video,
        )
        assert (
            constrained.sequences.total_length
            <= plain.sequences.total_length + 2
        )
