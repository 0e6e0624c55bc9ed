"""Resumable streaming sessions: checkpoint/restore equivalence."""

from __future__ import annotations

import json

import pytest

from repro.core.config import OnlineConfig
from repro.core.engine import OnlineEngine
from repro.core.query import CompoundQuery, Query
from repro.core.session import (
    SESSION_CLOSED,
    SESSION_DRAINING,
    SESSION_RUNNING,
    SESSION_SNAPSHOTTED,
    StreamSession,
)
from repro.errors import ConfigurationError
from repro.video.stream import ClipStream
from tests.conftest import make_kitchen_video
from tests.reference.intervals import set_iou

VIDEO = make_kitchen_video(seed=71, duration_s=300.0, video_id="sessionvid")
QUERY = Query(objects=["faucet"], action="washing dishes")


def run_full(zoo):
    return OnlineEngine(zoo, OnlineConfig()).run(QUERY, VIDEO)


def run_split(zoo, split_at: int, roundtrip_json: bool = True):
    """Process the stream in two sessions with a checkpoint in between."""
    stream = ClipStream(VIDEO.meta)
    first = StreamSession.for_query(zoo, QUERY, VIDEO, OnlineConfig())
    for _ in range(split_at):
        first.process(stream.next())
    state = first.state_dict()
    if roundtrip_json:
        state = json.loads(json.dumps(state))  # must survive serialization
    resumed = StreamSession.for_query(
        zoo, QUERY, VIDEO, OnlineConfig()
    ).load_state_dict(state)
    while not stream.end():
        resumed.process(stream.next())
    return resumed.finish()


class TestCheckpointEquivalence:
    @pytest.mark.parametrize("split_at", [1, 7, 40, 74])
    def test_resumed_run_is_bit_identical(self, zoo, split_at):
        full = run_full(zoo)
        split = run_split(zoo, split_at)
        assert split.sequences == full.sequences
        assert split.final_rates == pytest.approx(full.final_rates)

    def test_resumed_mid_open_run(self, zoo):
        """Checkpointing inside an open positive run must not split it."""
        full = run_full(zoo)
        positive_clip = next(iter(full.sequences.points()))
        split = run_split(zoo, positive_clip + 1)
        assert split.sequences == full.sequences

    def test_state_is_json_serialisable(self, zoo):
        stream = ClipStream(VIDEO.meta)
        session = StreamSession.for_query(zoo, QUERY, VIDEO, OnlineConfig())
        for _ in range(5):
            session.process(stream.next())
        encoded = json.dumps(session.state_dict())
        assert json.loads(encoded)["clip_index"] == 5


class TestStaticCheckpointEquivalence:
    """Checkpoint/resume is a session feature, not an SVAQD feature: the
    static (SVAQ) configuration must round-trip identically too."""

    def _split_run(self, zoo, split_at: int):
        stream = ClipStream(VIDEO.meta)
        first = StreamSession.for_query(
            zoo, QUERY, VIDEO, OnlineConfig(), dynamic=False
        )
        for _ in range(split_at):
            first.process(stream.next())
        state = json.loads(json.dumps(first.state_dict()))
        resumed = StreamSession.for_query(
            zoo, QUERY, VIDEO, OnlineConfig(), dynamic=False
        ).load_state_dict(state)
        while not stream.end():
            resumed.process(stream.next())
        return resumed.finish()

    @pytest.mark.parametrize("split_at", [1, 25, 60])
    def test_resumed_svaq_is_bit_identical(self, zoo, split_at):
        full = OnlineEngine(zoo, OnlineConfig()).run(QUERY, VIDEO, "svaq")
        split = self._split_run(zoo, split_at)
        assert split.sequences == full.sequences
        # The resumed session evaluates only the tail of the stream.
        assert [e.positive for e in split.evaluations] == [
            e.positive for e in full.evaluations[split_at:]
        ]

    def test_static_policy_state_has_no_estimators(self, zoo):
        session = StreamSession.for_query(
            zoo, QUERY, VIDEO, OnlineConfig(), dynamic=False
        )
        state = session.state_dict()
        assert state["policy"]["kind"] == "static"
        assert "estimators" not in state["policy"]

    def test_static_state_rejected_by_dynamic_session(self, zoo):
        static = StreamSession.for_query(
            zoo, QUERY, VIDEO, OnlineConfig(), dynamic=False
        )
        state = static.state_dict()
        dynamic = StreamSession.for_query(zoo, QUERY, VIDEO, OnlineConfig())
        with pytest.raises(ConfigurationError):
            dynamic.load_state_dict(state)


class TestCompoundCheckpointEquivalence:
    COMPOUND = CompoundQuery.disjunction(
        [
            Query(objects=["faucet"], action="washing dishes"),
            Query(action="washing dishes"),
        ]
    )

    @pytest.mark.parametrize("split_at", [3, 30])
    def test_resumed_compound_is_bit_identical(self, zoo, split_at):
        full = OnlineEngine(zoo, OnlineConfig()).run(self.COMPOUND, VIDEO)
        stream = ClipStream(VIDEO.meta)
        first = StreamSession.for_query(
            zoo, self.COMPOUND, VIDEO, OnlineConfig()
        )
        for _ in range(split_at):
            first.process(stream.next())
        state = json.loads(json.dumps(first.state_dict()))
        resumed = StreamSession.for_query(
            zoo, self.COMPOUND, VIDEO, OnlineConfig()
        ).load_state_dict(state)
        while not stream.end():
            resumed.process(stream.next())
        split = resumed.finish()
        assert split.sequences == full.sequences
        assert split.final_rates == pytest.approx(full.final_rates)


class TestSessionLifecycle:
    def test_process_after_finish_rejected(self, zoo):
        stream = ClipStream(VIDEO.meta)
        session = StreamSession.for_query(zoo, QUERY, VIDEO, OnlineConfig())
        session.process(stream.next())
        session.finish()
        with pytest.raises(ConfigurationError):
            session.process(stream.next())

    def test_checkpoint_after_finish_rejected(self, zoo):
        session = StreamSession.for_query(zoo, QUERY, VIDEO, OnlineConfig())
        session.finish()
        with pytest.raises(ConfigurationError):
            session.state_dict()

    def test_finish_idempotent(self, zoo):
        stream = ClipStream(VIDEO.meta)
        session = StreamSession.for_query(zoo, QUERY, VIDEO, OnlineConfig())
        for _ in range(10):
            session.process(stream.next())
        first = session.finish()
        second = session.finish()
        assert first.sequences == second.sequences

    def test_clip_index_tracks_progress(self, zoo):
        stream = ClipStream(VIDEO.meta)
        session = StreamSession.for_query(zoo, QUERY, VIDEO, OnlineConfig())
        assert session.clip_index == 0
        session.process(stream.next())
        assert session.clip_index == 1

    def test_quotas_exposed(self, zoo):
        session = StreamSession.for_query(zoo, QUERY, VIDEO, OnlineConfig())
        quotas = session.quotas()
        assert set(quotas) == {"faucet", "washing dishes"}


class TestLifecycleStates:
    """RUNNING → DRAINING → CLOSED, with SNAPSHOTTED as the frozen exit."""

    def _running(self, zoo, clips=5):
        stream = ClipStream(VIDEO.meta)
        session = StreamSession.for_query(
            zoo, QUERY, VIDEO, OnlineConfig(), dynamic=True
        )
        for _ in range(clips):
            session.process(stream.next())
        return session, stream

    def test_happy_path_transitions(self, zoo):
        session, _ = self._running(zoo)
        assert session._lifecycle == SESSION_RUNNING
        session.drain()
        assert session._lifecycle == SESSION_DRAINING
        session.drain()  # idempotent
        session.finish()
        assert session._lifecycle == SESSION_CLOSED

    def test_draining_session_rejects_clips_but_finishes(self, zoo):
        session, stream = self._running(zoo)
        session.drain()
        with pytest.raises(ConfigurationError, match="draining"):
            session.process(stream.next())
        assert session.finish().sequences is not None

    def test_snapshotted_session_is_frozen(self, zoo):
        session, stream = self._running(zoo)
        session.state_dict()
        session.mark_snapshotted()
        assert session._lifecycle == SESSION_SNAPSHOTTED
        with pytest.raises(ConfigurationError, match="snapshotted"):
            session.process(stream.next())
        with pytest.raises(ConfigurationError, match="frozen"):
            session.finish()
        with pytest.raises(ConfigurationError, match="cannot drain"):
            session.drain()

    def test_cannot_snapshot_a_closed_session(self, zoo):
        session, _ = self._running(zoo)
        session.finish()
        with pytest.raises(ConfigurationError, match="finished"):
            session.mark_snapshotted()

    def test_emit_callback_fires_per_closed_sequence(self, zoo):
        emitted = []
        stream = ClipStream(VIDEO.meta)
        session = StreamSession.for_query(
            zoo, QUERY, VIDEO, OnlineConfig(), dynamic=True
        )
        session.set_emit_callback(emitted.append)
        while not stream.end():
            session.process(stream.next())
        result = session.finish()
        assert [
            (iv.start, iv.end) for iv in emitted
        ] == result.sequences.as_tuples()

    def test_restored_sequences_are_not_re_emitted(self, zoo):
        session, stream = self._running(zoo, clips=15)
        state = json.loads(json.dumps(session.state_dict()))

        from repro.detectors.zoo import default_zoo

        resumed = StreamSession.for_query(
            default_zoo(seed=3), QUERY, VIDEO, OnlineConfig(), dynamic=True
        )
        resumed.load_state_dict(state)
        emitted = []
        resumed.set_emit_callback(emitted.append)
        while not stream.end():
            resumed.process(stream.next())
        result = resumed.finish()
        total = result.sequences.as_tuples()
        # The callback saw only the post-restore suffix, yet the final
        # result still carries every sequence of the run.
        suffix = [(iv.start, iv.end) for iv in emitted]
        assert suffix == total[len(total) - len(suffix):]


class TestSvaqdDelegation:
    def test_svaqd_run_matches_manual_session(self, zoo):
        via_algorithm = run_full(zoo)
        stream = ClipStream(VIDEO.meta)
        session = StreamSession.for_query(zoo, QUERY, VIDEO, OnlineConfig())
        while not stream.end():
            session.process(stream.next())
        manual = session.finish()
        assert manual.sequences == via_algorithm.sequences
        assert manual.final_rates == pytest.approx(via_algorithm.final_rates)


class TestSelectiveOrdering:
    """footnote 5 realised as an engine feature: an evaluation order
    ranked by expected cost-to-falsify, learned from probe clips."""

    def _run(self, order: str):
        from dataclasses import replace

        from repro.detectors.zoo import default_zoo

        zoo = default_zoo(seed=3)
        config = replace(OnlineConfig(), predicate_order=order)
        query = Query(
            objects=["person", "faucet"], action="washing dishes"
        )
        result = OnlineEngine(zoo, config).run(query, VIDEO)
        return result, zoo.cost_meter.ms()

    def test_answers_equivalent_across_orders(self):
        # Conjunctions are commutative, but under *dynamic* quotas the
        # evaluation order decides which predicates feed their estimators
        # on short-circuited clips, so trajectories (and borderline clips)
        # can differ marginally.  Demand near-identity, not bit-identity.
        user_result, _ = self._run("user")
        cost_result, _ = self._run("cost")
        assert set_iou(user_result.sequences, cost_result.sequences) >= 0.8

    def test_cost_order_saves_inference(self):
        # "person" (first in user order) fires on most clips, so user order
        # wastes invocations; cost order fails fast on "faucet" or the
        # action.
        _, user_cost = self._run("user")
        _, cost_cost = self._run("cost")
        assert cost_cost <= user_cost

    def test_order_converges_to_ascending_selectivity(self):
        from dataclasses import replace

        from repro.detectors.zoo import default_zoo
        from repro.video.stream import ClipStream

        zoo = default_zoo(seed=3)
        config = replace(OnlineConfig(), predicate_order="cost")
        query = Query(objects=["person", "faucet"], action="washing dishes")
        session = StreamSession.for_query(zoo, query, VIDEO, config)
        stream = ClipStream(VIDEO.meta)
        while not stream.end():
            session.process(stream.next())
        order = session._optimizer.current_order()
        rates = session.selectivity_estimates()
        # The two objects cost the same, so selectivity alone ranks them.
        objects = [label for label in order if label in query.objects]
        assert [rates[label] for label in objects] == sorted(
            rates[label] for label in objects
        )
        # person is the least selective predicate in this scene
        assert order[-1] == "person"

    def test_invalid_order_rejected(self):
        from dataclasses import replace

        import pytest as _pytest

        with _pytest.raises(Exception):
            replace(OnlineConfig(), predicate_order="random")


class TestCacheCheckpointState:
    """Checkpoints carry the detection cache's charge bookkeeping."""

    def test_version_is_7_and_cache_state_rides_along(self, zoo):
        stream = ClipStream(VIDEO.meta)
        session = StreamSession.for_query(zoo, QUERY, VIDEO, OnlineConfig())
        for _ in range(6):
            session.process(stream.next())
        state = session.state_dict()
        assert state["version"] == 7
        charged = state["cache"]["charged"]
        # Six clips evaluated the leading predicate without interruption.
        assert charged["object:faucet"] == [[0, 5]]

    def test_serial_reference_checkpoints_null_cache(self, zoo):
        config = OnlineConfig(cache_detections=False)
        stream = ClipStream(VIDEO.meta)
        session = StreamSession.for_query(zoo, QUERY, VIDEO, config)
        session.process(stream.next())
        state = json.loads(json.dumps(session.state_dict()))
        assert state["cache"] is None
        resumed = StreamSession.for_query(
            zoo, QUERY, VIDEO, config
        ).load_state_dict(state)
        assert resumed._evaluator.cache is None

    def test_restored_cache_does_not_recharge_fresh_units(self):
        """A resumed session's cache meters pre-checkpoint clips as cached
        when they are evaluated again (e.g. by a second query attaching to
        the restored cache)."""
        from repro.detectors.zoo import default_zoo

        zoo_a = default_zoo(seed=3)
        stream = ClipStream(VIDEO.meta)
        first = StreamSession.for_query(zoo_a, QUERY, VIDEO, OnlineConfig())
        for _ in range(10):
            first.process(stream.next())
        state = json.loads(json.dumps(first.state_dict()))

        zoo_b = default_zoo(seed=3)
        resumed = StreamSession.for_query(
            zoo_b, QUERY, VIDEO, OnlineConfig()
        ).load_state_dict(state)
        # Loading charges nothing...
        assert zoo_b.cost_meter.units() == 0
        # ...and a pre-checkpoint clip re-evaluated through the restored
        # cache meters as a hit, not as fresh work.
        _, units, fresh = resumed._evaluator.cache.lookup("object", "faucet", 0)
        assert not fresh
        assert zoo_b.cost_meter.units() == 0
        assert zoo_b.cost_meter.cached_units(zoo_b.detector.name) == units


class TestRefusedRuns:
    """A run that does not continue the session's stream is refused with a
    ``ConfigurationError`` before a row is consumed: the meter, the
    counters, the checkpoint and every later row are what they would have
    been without the call (a gap once charged 20 clips, then raised)."""

    @staticmethod
    def started(config, dynamic):
        from repro.detectors.zoo import default_zoo
        from tests.core.test_block_kernel import ACTION, street

        video = street("fencevid", 600.0, seed=17)
        zoo = default_zoo(seed=3)
        session = StreamSession.for_query(
            zoo, Query(objects=["car"], action=ACTION), video, config,
            dynamic=dynamic,
        )
        session.advance(ClipStream(video.meta, 0, 10))
        return video, zoo, session

    @staticmethod
    def metered(zoo):
        meter = zoo.cost_meter
        return meter.units(), meter.ms(), meter.cached_units()

    def observed(self, zoo, session):
        stats = session.context.snapshot().as_dict()
        stats.pop("stage_wall_s")
        return self.metered(zoo), stats, session.state_dict()

    @pytest.mark.parametrize(
        "config",
        [OnlineConfig(), OnlineConfig(cache_detections=False)],
        ids=["block", "per-clip"],
    )
    @pytest.mark.parametrize("dynamic", [True, False], ids=["svaqd", "svaq"])
    @pytest.mark.parametrize(
        "refused", ["gap", "replay", "hole in a list", "range gap", "stepped range"]
    )
    def test_a_refused_run_consumes_nothing(self, config, dynamic, refused):
        from repro.video.model import ClipView

        video, zoo, session = self.started(config, dynamic)
        _, twin_zoo, twin = self.started(config, dynamic)
        before = self.observed(zoo, session)
        assert before == self.observed(twin_zoo, twin)
        assert before[1]["clips_processed"] == 10
        clips = {
            "gap": ClipStream(video.meta, 100, 120),
            "replay": ClipStream(video.meta, 5, 9),
            "hole in a list": [ClipView(video.meta, c) for c in (10, 11, 13)],
            "range gap": range(100, 120),
            "stepped range": range(10, 20, 2),
        }[refused]
        with pytest.raises(ConfigurationError, match="continue the stream"):
            session.advance(clips)
        assert self.observed(zoo, session) == before
        for each in (session, twin):
            each.advance(ClipStream(video.meta, 10))
        result, expected = session.finish(), twin.finish()
        assert result.evaluations == expected.evaluations
        assert result.sequences == expected.sequences
        assert result.stats.clips_processed == expected.stats.clips_processed == 300
        assert self.metered(zoo) == self.metered(twin_zoo)

    @pytest.mark.parametrize("dynamic", [True, False], ids=["svaqd", "svaq"])
    @pytest.mark.parametrize("door", ["solo", "fleet"])
    @pytest.mark.parametrize("refused", ["past the end", "negative start"])
    def test_a_range_outside_the_video_is_refused(self, dynamic, door, refused):
        """A range of ids is read as it is, so it is held to the video's
        clips: one past the end once spun a solo advance forever at the
        last chunk and had a fleet step clips the video does not have."""
        from repro.core.scheduler import FleetRun, QuerySpec
        from repro.detectors.zoo import default_zoo
        from tests.core.test_block_kernel import ACTION, street

        video = street("fencevid", 600.0, seed=17)
        zoo = default_zoo(seed=3)
        query = Query(objects=["car"], action=ACTION)
        algorithm = "svaqd" if dynamic else "svaq"
        runner = (
            StreamSession.for_query(zoo, query, video, OnlineConfig(), dynamic=dynamic)
            if door == "solo"
            else FleetRun(zoo, video, queries=[QuerySpec("q", query, algorithm=algorithm)])
        )
        n = video.meta.n_clips
        start = 0 if refused == "negative start" else n - 10
        runner.advance(ClipStream(video.meta, 0, start))
        before = self.metered(zoo)
        with pytest.raises(ConfigurationError, match="continue the stream in the video"):
            runner.advance(range(start - 5, start + 5) if start == 0 else range(start, n + 100))
        assert self.metered(zoo) == before
        runner.advance(range(start, n))
        result = runner.finish()
        processed = (result if door == "solo" else result["q"]).stats.clips_processed
        assert processed == n == 300

    def test_process_refuses_an_out_of_order_clip(self):
        video, zoo, session = self.started(OnlineConfig(), True)
        before = self.observed(zoo, session)
        with pytest.raises(ConfigurationError, match="expected clip 10, got 12"):
            session.process(ClipStream(video.meta, 12).next())
        assert self.observed(zoo, session) == before
