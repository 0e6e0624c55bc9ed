"""The query model and its footnote 2–4 extensions."""

from __future__ import annotations

import pytest

from repro.core.engine import OnlineEngine
from repro.core.query import CompoundQuery, Query
from repro.errors import QueryError
from repro.eval.metrics import match_sequences
from repro.video.synthesis import LabeledVideo, SceneSpec, TrackSpec, synthesize_video


class TestQuery:
    def test_canonical_form(self):
        q = Query(objects=["car", "person"], action="jumping")
        assert q.action == "jumping"
        assert q.objects == ("car", "person")
        assert q.all_labels == ("car", "person", "jumping")

    def test_describe(self):
        q = Query(objects=["car"], action="jumping")
        assert q.describe() == "q:{a=jumping; o1=car}"

    def test_object_only_query(self):
        q = Query(objects=["car"])
        assert q.actions == ()
        with pytest.raises(QueryError):
            _ = q.action

    def test_action_only_query(self):
        q = Query(action="jumping")
        assert q.objects == ()
        assert q.action == "jumping"

    def test_multiple_actions_extension(self):
        q = Query(objects=["car"], actions=["jumping", "waving"])
        assert q.actions == ("jumping", "waving")
        with pytest.raises(QueryError):
            _ = q.action  # ambiguous

    def test_relationships_extension(self):
        q = Query(objects=["car"], action="jumping",
                  relationships=["person_left_of_car"])
        assert "person_left_of_car" in q.frame_level_labels

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            Query()

    def test_duplicates_rejected(self):
        with pytest.raises(QueryError):
            Query(objects=["car", "car"], action="jumping")

    def test_vocabulary_validation(self):
        q = Query(objects=["car"], action="jumping")
        q.validate_against(frozenset({"car"}), frozenset({"jumping"}))
        with pytest.raises(QueryError):
            q.validate_against(frozenset({"bus"}), frozenset({"jumping"}))
        with pytest.raises(QueryError):
            q.validate_against(frozenset({"car"}), frozenset({"waving"}))
        q.validate_against(None, None)  # open vocabularies


class TestCompoundQuery:
    def test_conjunction(self):
        a, b = Query(action="x"), Query(action="y")
        cq = CompoundQuery.conjunction([a, b])
        assert len(cq.clauses) == 2
        assert cq.describe() == "(q:{a=x}) AND (q:{a=y})"

    def test_disjunction(self):
        a, b = Query(action="x"), Query(action="y")
        cq = CompoundQuery.disjunction([a, b])
        assert len(cq.clauses) == 1
        assert "OR" in cq.describe()

    def test_all_labels_deduplicated(self):
        a = Query(objects=["car"], action="x")
        b = Query(objects=["car"], action="y")
        cq = CompoundQuery.disjunction([a, b])
        assert cq.all_labels == ("car", "x", "y")

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            CompoundQuery(())
        with pytest.raises(QueryError):
            CompoundQuery(((),))


def relationship_video(occupancy: float) -> LabeledVideo:
    """The kitchen scene with a footnote-2 relationship label: a binary
    per-frame indicator the scene's ground truth carries like an object."""
    return synthesize_video(SceneSpec(
        video_id="relvid",
        duration_s=300.0,
        tracks=(
            TrackSpec(label="washing dishes", kind="action",
                      occupancy=0.25, mean_duration_s=20.0),
            TrackSpec(label="person_near_faucet", kind="object",
                      correlate_with="washing dishes", correlation=0.9,
                      occupancy=occupancy),
        ),
    ), seed=61)


class TestRelationshipPredicates:
    def test_relationship_predicate_end_to_end(self, zoo):
        video = relationship_video(0.2)
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
        video = relationship_video(0.1)
        engine = OnlineEngine(zoo)
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
