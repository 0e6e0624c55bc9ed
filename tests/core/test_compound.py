"""Compound (CNF) query execution — footnotes 3–4 end to end."""

from __future__ import annotations

import pytest

from repro.core.config import OnlineConfig
from repro.core.engine import OnlineEngine
from repro.core.indicators import EvaluationLog
from repro.core.query import CompoundQuery, Query
from repro.detectors.zoo import default_zoo
from repro.errors import QueryError
from repro.eval.metrics import match_sequences
from repro.sql import parse, plan
from repro.video.synthesis import SceneSpec, TrackSpec, synthesize_video
from tests.conftest import drive_session
from tests.core.test_block_kernel import logical, meter_reading


def two_action_video(seed: int = 5):
    """A scene with two disjoint actions plus a shared object."""
    spec = SceneSpec(
        video_id=f"compound-{seed}",
        duration_s=400.0,
        tracks=(
            TrackSpec(label="jumping", kind="action",
                      occupancy=0.15, mean_duration_s=15.0),
            TrackSpec(label="waving", kind="action",
                      occupancy=0.15, mean_duration_s=15.0),
            TrackSpec(label="person", kind="object", occupancy=0.6,
                      mean_duration_s=40.0),
        ),
    )
    return synthesize_video(spec, seed=seed)


VIDEO = two_action_video()


class TestDisjunction:
    def test_or_covers_union_of_actions(self, zoo):
        compound = CompoundQuery.disjunction(
            [Query(action="jumping"), Query(action="waving")]
        )
        result = OnlineEngine(zoo, OnlineConfig()).run(compound, VIDEO)
        geometry = VIDEO.meta.geometry
        truth = geometry.frame_set_to_clips(
            VIDEO.truth.action_frames("jumping").union(
                VIDEO.truth.action_frames("waving")
            )
        )
        assert match_sequences(result.sequences, truth).f1 >= 0.6

    def test_or_superset_of_each_branch(self, zoo):
        compound = CompoundQuery.disjunction(
            [Query(action="jumping"), Query(action="waving")]
        )
        config = OnlineConfig()
        union = OnlineEngine(zoo, config).run(compound, VIDEO).sequences
        for action in ("jumping", "waving"):
            single = OnlineEngine(zoo, config).run(Query(action=action), VIDEO)
            covered = single.sequences.intersect(union)
            assert covered.total_length >= int(
                0.85 * single.sequences.total_length
            )


class TestConjunctionEquivalence:
    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
    @pytest.mark.parametrize("members", [1, 2], ids=["solo", "fleet"])
    @pytest.mark.parametrize("algorithm", ["svaqd", "svaq"])
    def test_single_literal_matches_svaqd(self, algorithm, members, cached):
        """A conjunction and the CNF of that one literal are one clause
        walk: the same rows, counters and model charges, run alone or as
        the second member of a fleet."""
        query = Query(objects=["person"], action="jumping")
        # Unshared: the direct fleet's q1 duplicates q0, and as a passive
        # member of q0's rate group it would book no bucket skips.
        config = OnlineConfig(cache_detections=cached, share_rate_estimates=False)

        def run(shape):
            zoo = default_zoo(seed=3)
            engine = OnlineEngine(zoo=zoo, config=config)
            if members == 1:
                result = engine.run(shape, VIDEO, algorithm)
            else:
                result = engine.run_queries([query, shape], VIDEO, algorithm)["q1"]
            return result, meter_reading(zoo)

        direct, direct_meter = run(query)
        compound, compound_meter = run(CompoundQuery.conjunction([query]))
        assert compound.sequences == direct.sequences
        assert compound.sequences  # the scene has jumping people in it
        assert len(compound.evaluations) == len(direct.evaluations)
        for got, want in zip(compound.evaluations, direct.evaluations):
            assert (got.positive, got.outcomes) == (want.positive, want.outcomes)
        assert logical(compound.stats) == logical(direct.stats)
        assert compound_meter == direct_meter

    def test_multi_action_conjunction_subset_of_each(self, zoo):
        compound = CompoundQuery.conjunction(
            [Query(action="jumping"), Query(action="waving")]
        )
        result = OnlineEngine(zoo, OnlineConfig()).run(compound, VIDEO)
        config = OnlineConfig()
        for action in ("jumping", "waving"):
            single = OnlineEngine(zoo, config).run(Query(action=action), VIDEO)
            stray = result.sequences.difference(single.sequences)
            assert stray.total_length <= max(
                2, int(0.1 * max(1, result.sequences.total_length))
            )


class TestMechanics:
    def test_clause_short_circuit_marks_none(self, zoo):
        compound = CompoundQuery.conjunction(
            [Query(action="jumping"), Query(action="waving")]
        )
        result = OnlineEngine(zoo, OnlineConfig()).run(compound, VIDEO)
        short_circuited = [
            ev for ev in result.evaluations if ev.clause_values[1] is None
        ]
        # at least one clip failed the first clause and skipped the second
        assert short_circuited
        for ev in short_circuited:
            assert not ev.positive

    def test_shared_label_counted_once(self, zoo):
        compound = CompoundQuery.disjunction(
            [
                Query(objects=["person"], action="jumping"),
                Query(objects=["person"], action="waving"),
            ]
        )
        result = drive_session(
            zoo, compound, VIDEO, OnlineConfig(), short_circuit=False
        )
        for ev in result.evaluations:
            # person appears once in the outcomes despite two literals
            assert [o.label for o in ev.outcomes].count("person") == 1

    def test_static_mode(self, zoo):
        compound = CompoundQuery.disjunction(
            [Query(action="jumping"), Query(action="waving")]
        )
        result = OnlineEngine(zoo, OnlineConfig().with_p0(1e-2)).run(
            compound, VIDEO, "svaq"
        )
        assert result.final_rates == {}
        assert result.evaluations

    def test_label_kind_conflict_rejected(self, zoo):
        compound = CompoundQuery.disjunction(
            [Query(action="person"), Query(objects=["person"])]
        )
        with pytest.raises(QueryError):
            OnlineEngine(zoo, OnlineConfig()).run(compound, VIDEO)


class TestResultReadApi:
    """A CNF run's ``OnlineResult``: a lazy evaluation log and the counts
    taken off its columns."""

    COMPOUND = CompoundQuery.conjunction(
        [Query(action="jumping"), Query(objects=["person"])]
    )

    @pytest.mark.parametrize("cached", [True, False])
    def test_rates_and_counts_read_off_the_log(self, zoo, cached):
        config = OnlineConfig(cache_detections=cached)
        result = OnlineEngine(zoo=zoo, config=config).run(self.COMPOUND, VIDEO)
        assert isinstance(result.evaluations, EvaluationLog)
        rows = list(result.evaluations)
        assert result.n_clips == len(rows) == VIDEO.meta.n_clips
        assert result.positive_clips == sum(row.positive for row in rows)
        for label in ("jumping", "person"):
            asked = [row for row in rows if row.outcome(label).evaluated]
            rate = sum(row.outcome(label).indicator for row in asked) / len(asked)
            assert result.predicate_indicator_rate(label) == rate
            # The rows themselves answer too, wrapped again or not.
            assert EvaluationLog(rows).indicator_rate(label) == rate
        with pytest.raises(QueryError):
            result.predicate_indicator_rate("zebra")

    def test_outcome_of_a_short_circuited_and_of_an_unknown_label(self, zoo):
        result = OnlineEngine(zoo, OnlineConfig()).run(self.COMPOUND, VIDEO)
        row = next(
            row for row in result.evaluations if row.clause_values[1] is None
        )
        # Every label of the plan is listed: frame-level ones, then actions.
        assert [o.label for o in row.outcomes] == ["person", "jumping"]
        assert row.outcome("jumping") is row.outcomes[1]
        skipped = row.outcome("person")
        assert (skipped.label, skipped.kind) == ("person", "object")
        assert not skipped.evaluated and skipped is row.outcomes[0]
        with pytest.raises(QueryError):
            row.outcome("zebra")


class TestSqlIntegration:
    def test_or_query_executes_through_plan(self, zoo):
        statement = parse(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, "
            "act USING ActionRecognizer) "
            "WHERE act='jumping' OR act='waving'"
        )
        compiled = plan(statement)
        assert compiled.compound is not None
        result = compiled.execute_online(OnlineEngine(zoo=zoo), VIDEO)
        assert result.video_id == VIDEO.video_id
        direct = OnlineEngine(zoo=zoo).run(compiled.compound, VIDEO)
        assert result.sequences == direct.sequences
