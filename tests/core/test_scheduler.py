"""Multi-query stream scheduler: shared-cache lockstep execution."""

from __future__ import annotations

import pytest

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext
from repro.core.engine import OnlineEngine
from repro.core.query import CompoundQuery, Query
from repro.core.scheduler import (
    FleetRun,
    QuerySpec,
    as_specs,
    spec_from_dict,
    spec_to_dict,
)
from repro.core.session import StreamSession
from repro.detectors.zoo import default_zoo
from repro.errors import ConfigurationError
from repro.video.stream import ClipStream
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=41, duration_s=240.0, video_id="schedvid")
QUERIES = [
    Query(objects=["faucet"], action="washing dishes"),
    Query(objects=["person"], action="washing dishes"),
    Query(objects=["faucet", "person"], action="washing dishes"),
]


def solo_results(config=None, algorithm="svaqd"):
    """Each query run alone on a fresh zoo — the reference the scheduler
    must reproduce."""
    engine = OnlineEngine(zoo=default_zoo(seed=3),
                          config=config or OnlineConfig())
    return [engine.run(q, VIDEO, algorithm) for q in QUERIES]


class TestAsSpecs:
    def test_auto_names_bare_queries(self):
        specs = as_specs(QUERIES, algorithm="svaq")
        assert [s.name for s in specs] == ["q0", "q1", "q2"]
        assert all(s.algorithm == "svaq" for s in specs)

    def test_specs_pass_through(self):
        spec = QuerySpec("mine", QUERIES[0], algorithm="svaq")
        assert as_specs([spec]) == [spec]

    def test_mixed_input_keeps_positional_names(self):
        specs = as_specs([QUERIES[0], QuerySpec("named", QUERIES[1])])
        assert [s.name for s in specs] == ["q0", "named"]

    def test_rejects_duplicates_empties_and_junk(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            as_specs([QuerySpec("a", QUERIES[0]), QuerySpec("a", QUERIES[1])])
        with pytest.raises(ConfigurationError, match="at least one"):
            as_specs([])
        with pytest.raises(ConfigurationError, match="expected Query"):
            as_specs(["not a query"])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigurationError, match="unknown online"):
            QuerySpec("a", QUERIES[0], algorithm="offline")


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("algorithm", ["svaq", "svaqd"])
    def test_results_match_solo_runs(self, algorithm):
        run = OnlineEngine(default_zoo(seed=3)).run_queries(
            QUERIES, VIDEO, algorithm
        )
        solo = solo_results(algorithm=algorithm)
        assert run.video_id == VIDEO.video_id
        for name, reference in zip(["q0", "q1", "q2"], solo):
            result = run[name]
            assert result.sequences == reference.sequences
            assert result.evaluations == reference.evaluations
            assert result.final_rates == pytest.approx(reference.final_rates)

    def test_per_query_stats_match_solo_modulo_cache_fields(self):
        run = OnlineEngine(default_zoo(seed=3)).run_queries(QUERIES, VIDEO)
        for result, reference in zip(
            (run[f"q{i}"] for i in range(3)), solo_results()
        ):
            shared = result.stats.as_dict()
            solo = reference.stats.as_dict()
            for stats in (shared, solo):
                stats.pop("stage_wall_s")
                stats.pop("detector_cache_hits")
                stats.pop("recognizer_cache_hits")
                stats.pop("cache_hit_rate")
            assert shared == solo

    def test_shared_cache_meters_fresh_plus_cached(self):
        """serial fresh units == shared fresh + shared cached, per model."""
        serial_zoo = default_zoo(seed=3)
        serial_engine = OnlineEngine(
            zoo=serial_zoo, config=OnlineConfig(cache_detections=False)
        )
        for query in QUERIES:
            serial_engine.run(query, VIDEO, "svaqd")

        shared_zoo = default_zoo(seed=3)
        OnlineEngine(shared_zoo).run_queries(QUERIES, VIDEO)
        for model in (serial_zoo.detector.name, serial_zoo.recognizer.name):
            assert serial_zoo.cost_meter.units(model) == (
                shared_zoo.cost_meter.units(model)
                + shared_zoo.cost_meter.cached_units(model)
            )
        # Three overlapping queries must actually share work.
        assert shared_zoo.cost_meter.cached_units() > 0
        assert shared_zoo.cost_meter.units() < serial_zoo.cost_meter.units()

    def test_a_live_manager_holds_only_its_own_rows(self):
        """Sixty register -> advance -> cancel cycles beside a standing
        query, each under a new rate-group key: the released groups'
        estimator rows go with them, and the one live manager holds its
        own two labels' rows."""
        fleet = FleetRun(
            default_zoo(seed=3), VIDEO, queries=[QuerySpec("keep", QUERIES[0])]
        )
        clips = ClipStream(VIDEO.meta)
        for cycle in range(60):
            name = fleet.register(QuerySpec(f"c{cycle}", QUERIES[0]))
            fleet.advance([clips.next()])
            fleet.cancel(name)
        manager = fleet.session("keep").policy.manager
        assert len(manager._bank) == len(manager.labels()) == 2
        assert fleet.rate_book_stats() == {"groups": 1.0, "members": 1.0}

    def test_later_sessions_record_cache_hits(self):
        run = OnlineEngine(default_zoo(seed=3)).run_queries(QUERIES, VIDEO)
        # q0 evaluates faucet + washing dishes first on every clip, so it
        # pays fresh; q1's washing-dishes and q2's everything overlap.
        assert run["q0"].stats.cache_hits == 0
        assert run["q2"].stats.cache_hits > 0

    def test_mixed_fleet_and_compound(self):
        compound = CompoundQuery.disjunction([
            Query(objects=["faucet"], action="washing dishes"),
            Query(objects=["person"], action="washing dishes"),
        ])
        specs = [
            QuerySpec("static", QUERIES[0], algorithm="svaq"),
            QuerySpec("dynamic", QUERIES[1], algorithm="svaqd"),
            QuerySpec("cnf", compound, algorithm="svaqd"),
        ]
        run = OnlineEngine(default_zoo(seed=3)).run_queries(specs, VIDEO)
        engine = OnlineEngine(zoo=default_zoo(seed=3))
        assert run["static"].sequences == engine.run(
            QUERIES[0], VIDEO, "svaq"
        ).sequences
        assert run["dynamic"].sequences == engine.run(
            QUERIES[1], VIDEO, "svaqd"
        ).sequences
        assert run["cnf"].sequences == engine.run(
            compound, VIDEO, "svaqd"
        ).sequences

    def test_merged_context_totals_private_sessions(self):
        context = ExecutionContext()
        run = OnlineEngine(default_zoo(seed=3)).run_queries(
            QUERIES, VIDEO, context=context
        )
        total = sum(run[f"q{i}"].stats.model_invocations for i in range(3))
        assert context.snapshot().model_invocations == total
        assert context.clips_processed == 3 * VIDEO.meta.n_clips


class TestFleetMembership:
    """Dynamic register/cancel between steps — the service's contract."""

    def _suffix_reference(self, query, start_clip):
        """The query run alone over the stream's suffix (what a query
        registered at ``start_clip`` must observe)."""
        session = StreamSession.for_query(
            default_zoo(seed=3), query, VIDEO, OnlineConfig(), dynamic=True
        )
        for clip in ClipStream(VIDEO.meta, start_clip=start_clip):
            session.process(clip)
        return session.finish()

    def test_register_mid_stream_observes_only_the_suffix(self):
        fleet = FleetRun(default_zoo(seed=3), VIDEO, queries=[QUERIES[0]])
        clips = ClipStream(VIDEO.meta)
        join_at = VIDEO.meta.n_clips // 2
        for _ in range(join_at):
            fleet.advance([clips.next()])
        late = fleet.register(QUERIES[1])
        assert late == "q1"
        assert fleet.live == ("q0", "q1")
        while not clips.end():
            fleet.advance([clips.next()])
        run = fleet.finish()
        reference = self._suffix_reference(QUERIES[1], join_at)
        assert run[late].sequences == reference.sequences
        assert run[late].evaluations == reference.evaluations

    def test_cancel_mid_stream_returns_the_prefix(self):
        fleet = FleetRun(
            default_zoo(seed=3), VIDEO, queries=QUERIES[:2]
        )
        clips = ClipStream(VIDEO.meta)
        cancel_at = VIDEO.meta.n_clips // 2
        for _ in range(cancel_at):
            fleet.advance([clips.next()])
        cancelled = fleet.cancel("q0")
        assert fleet.live == ("q1",)
        while not clips.end():
            fleet.advance([clips.next()])
        run = fleet.finish()
        # The cancelled result covers exactly the clips it saw...
        prefix = StreamSession.for_query(
            default_zoo(seed=3), QUERIES[0], VIDEO, OnlineConfig(),
            dynamic=True,
        )
        for clip in ClipStream(VIDEO.meta, stop_clip=cancel_at):
            prefix.process(clip)
        reference = prefix.finish()
        assert cancelled.sequences == reference.sequences
        # ...and still appears in the final run, while the survivor's
        # full-stream result is unaffected by the retirement.
        assert run["q0"].sequences == cancelled.sequences
        full = OnlineEngine(zoo=default_zoo(seed=3)).run(
            QUERIES[1], VIDEO, "svaqd"
        )
        assert run["q1"].sequences == full.sequences

    def test_names_stay_reserved_after_cancel(self):
        fleet = FleetRun(default_zoo(seed=3), VIDEO, queries=QUERIES[:2])
        fleet.advance([ClipStream(VIDEO.meta).next()])
        fleet.cancel("q0")
        with pytest.raises(ConfigurationError, match="retired"):
            fleet.register(QuerySpec("q0", QUERIES[0]))
        with pytest.raises(ConfigurationError, match="live"):
            fleet.register(QuerySpec("q1", QUERIES[0]))
        # Auto-naming skips both live and retired names.
        assert fleet.register(QUERIES[2]) == "q2"

    def test_advance_rejects_gaps_and_replays(self):
        fleet = FleetRun(default_zoo(seed=3), VIDEO, queries=[QUERIES[0]])
        stream = ClipStream(VIDEO.meta)
        first = stream.next()
        second = stream.next()
        fleet.advance([first])
        with pytest.raises(ConfigurationError, match="continue the stream"):
            fleet.advance([first])  # replay
        fleet.advance([second])
        third = stream.next()
        stream.next()
        with pytest.raises(ConfigurationError, match="continue the stream"):
            fleet.advance([ClipStream(VIDEO.meta, start_clip=4).next()])
        fleet.advance([third])

    def test_a_batch_with_a_hole_is_refused_before_any_clip_is_consumed(self):
        zoo = default_zoo(seed=3)
        fleet = FleetRun(zoo, VIDEO, queries=QUERIES[:2])
        stream = ClipStream(VIDEO.meta)
        fleet.advance([stream.next(), stream.next()])
        units = zoo.cost_meter.units()
        batch = [stream.next(), stream.next()]
        stream.next()
        with pytest.raises(ConfigurationError, match="expected clip 4, got 5"):
            fleet.advance([*batch, stream.next()])
        assert (fleet.position, zoo.cost_meter.units()) == (2, units)
        fleet.advance(batch)
        assert fleet.position == 4

    def test_finished_fleet_rejects_everything(self):
        fleet = FleetRun(default_zoo(seed=3), VIDEO, queries=[QUERIES[0]])
        fleet.advance([ClipStream(VIDEO.meta).next()])
        fleet.finish()
        with pytest.raises(ConfigurationError, match="finished"):
            fleet.register(QUERIES[1])
        with pytest.raises(ConfigurationError, match="finished"):
            fleet.advance([ClipStream(VIDEO.meta, start_clip=1).next()])
        with pytest.raises(ConfigurationError, match="finished"):
            fleet.state_dict()

    def test_load_requires_a_fresh_run(self):
        fleet = FleetRun(default_zoo(seed=3), VIDEO, queries=[QUERIES[0]])
        state = fleet.state_dict()
        occupied = FleetRun(default_zoo(seed=3), VIDEO, queries=[QUERIES[1]])
        with pytest.raises(ConfigurationError, match="fresh"):
            occupied.load_state_dict(state)
        other_video = make_kitchen_video(
            seed=42, duration_s=120.0, video_id="other"
        )
        mismatched = FleetRun(default_zoo(seed=3), other_video)
        with pytest.raises(ConfigurationError, match="holds video"):
            mismatched.load_state_dict(state)

    def test_a_fleet_over_a_bounded_stream_still_works(self):
        fleet = OnlineEngine(default_zoo(seed=3)).start_queries(
            QUERIES[:1], VIDEO, start_clip=3
        )
        fleet.advance(ClipStream(VIDEO.meta, start_clip=3, stop_clip=20))
        run = fleet.finish()
        reference = self._suffix_reference_bounded(QUERIES[0], 3, 20)
        assert run["q0"].sequences == reference.sequences

    def _suffix_reference_bounded(self, query, start, stop):
        session = StreamSession.for_query(
            default_zoo(seed=3), query, VIDEO, OnlineConfig(), dynamic=True
        )
        for clip in ClipStream(VIDEO.meta, start_clip=start, stop_clip=stop):
            session.process(clip)
        return session.finish()


class TestSpecSerialisation:
    def test_plain_and_compound_specs_round_trip(self):
        compound = CompoundQuery.disjunction(QUERIES[:2])
        specs = [
            QuerySpec("a", QUERIES[0], algorithm="svaq",
                      k_crit_overrides={"faucet": 2}),
            QuerySpec("b", compound, algorithm="svaqd"),
        ]
        for spec in specs:
            restored = spec_from_dict(spec_to_dict(spec))
            assert restored == spec

    def test_unknown_payload_type_rejected(self):
        with pytest.raises(ConfigurationError, match=r"query spec\.query"):
            spec_from_dict(
                {**spec_to_dict(QuerySpec("x", QUERIES[0])),
                 "query": {"type": "mystery"}}
            )


class TestEngineFacade:
    def test_run_queries(self):
        engine = OnlineEngine(zoo=default_zoo(seed=3))
        run = engine.run_queries(QUERIES, VIDEO)
        for result, reference in zip(
            (run[f"q{i}"] for i in range(3)), solo_results()
        ):
            assert result.sequences == reference.sequences

    def test_start_queries_returns_a_steppable_fleet(self):
        engine = OnlineEngine(zoo=default_zoo(seed=3))
        fleet = engine.start_queries([], VIDEO)
        assert fleet.live == ()
        fleet.register(QUERIES[0])
        for clip in ClipStream(VIDEO.meta):
            fleet.advance([clip])
        run = fleet.finish()
        reference = OnlineEngine(zoo=default_zoo(seed=3)).run_queries(
            QUERIES[:1], VIDEO
        )
        assert run["q0"].sequences == reference["q0"].sequences
