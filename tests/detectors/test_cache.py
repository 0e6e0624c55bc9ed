"""DetectionScoreCache: vectorised counts, charge metering, checkpoints."""

from __future__ import annotations

import copy
import gc
import json
import weakref

import numpy as np
import pytest

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.core.scheduler import FleetRun, QuerySpec
from repro.core.session import StreamSession
from repro.detectors.cache import ChargeLedger, DetectionScoreCache, _runs_of
from repro.detectors.faults import FaultProfile, fault_profile, faulty_zoo
from repro.detectors.simulated import (
    SimulatedActionRecognizer,
    SimulatedObjectDetector,
)
from repro.detectors.zoo import ModelZoo, default_zoo
from repro.errors import (
    ConfigurationError,
    CorruptedOutputError,
    ModelExecutionError,
)
from repro.video.stream import ClipStream
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=31, duration_s=240.0, video_id="cachevid")
LABELS = {"object": ["faucet", "person"], "action": ["washing dishes"]}


def make_cache(zoo, **kwargs) -> DetectionScoreCache:
    return DetectionScoreCache(zoo, VIDEO.meta, VIDEO.truth, **kwargs)


class TestCounts:
    @pytest.mark.parametrize("chunk_clips", [1, 7, 64, 10_000])
    def test_counts_match_serial_score_clip(self, zoo, chunk_clips):
        """Every clip's cached count equals the serial Eq. 1/2 count, for
        any chunking."""
        cache = make_cache(zoo, chunk_clips=chunk_clips)
        for kind, labels in LABELS.items():
            model = zoo.detector if kind == "object" else zoo.recognizer
            for label in labels:
                for clip_id in range(VIDEO.meta.n_clips):
                    scores = model.score_clip(
                        VIDEO.meta, VIDEO.truth, label, clip_id
                    )
                    expected = int(
                        np.count_nonzero(scores >= model.threshold)
                    )
                    count, units = cache.counts(kind, label, clip_id)
                    assert count == expected
                    assert units == len(scores)

    def test_units_per_clip(self, zoo):
        cache = make_cache(zoo)
        geometry = VIDEO.meta.geometry
        assert cache.units_per_clip("object") == geometry.frames_per_clip
        assert cache.units_per_clip("action") == geometry.shots_per_clip

    def test_counts_do_not_charge(self, zoo):
        fresh = default_zoo(seed=3)
        cache = make_cache(fresh)
        cache.counts("object", "faucet", 0)
        assert fresh.cost_meter.units() == 0
        assert fresh.cost_meter.cached_units() == 0


class ScoreOnlyDetector:
    """An object detector that implements the protocol and nothing more."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.profile = inner.profile
        self.threshold = inner.threshold
        self.calls = 0

    def score_video(self, video, truth, label):
        self.calls += 1
        return self._inner.score_video(video, truth, label)


def forbid_scores(monkeypatch):
    def refuse(self, video, truth, label):
        raise AssertionError(f"{self.name} was asked for scores")

    monkeypatch.setattr(SimulatedObjectDetector, "score_video", refuse)
    monkeypatch.setattr(SimulatedActionRecognizer, "score_video", refuse)


class TestWhichPathBuildsAColumn:
    """A column comes from the model's firing indicator when the model's
    type offers one; from scores at the model's threshold otherwise — a
    model that only scores, or a fault-injected zoo."""

    def test_the_indicator_serves_the_profile_thresholds(self, monkeypatch):
        reference = make_cache(default_zoo(seed=3))
        expected = {
            (kind, label): reference.counts_block(
                kind, label, 0, VIDEO.meta.n_clips
            ).tolist()
            for kind, labels in LABELS.items() for label in labels
        }
        forbid_scores(monkeypatch)
        cache = make_cache(default_zoo(seed=3), chunk_clips=16)
        for (kind, label), column in expected.items():
            assert cache.counts_block(
                kind, label, 0, VIDEO.meta.n_clips
            ).tolist() == column

    def test_a_model_that_only_scores_is_scored(self):
        zoo = default_zoo(seed=3)
        stub = ScoreOnlyDetector(zoo.detector)
        cache = make_cache(
            ModelZoo(stub, zoo.recognizer, zoo.tracker, zoo.cost_meter),
            chunk_clips=16,
        )
        reference = make_cache(default_zoo(seed=3))
        n_clips = VIDEO.meta.n_clips
        assert cache.counts_block("object", "faucet", 0, n_clips).tolist() == (
            reference.counts_block("object", "faucet", 0, n_clips).tolist()
        )
        assert stub.calls == -(-n_clips // 16)  # one call a chunk

    @pytest.mark.parametrize("profile", ["chaos", "flaky"])
    def test_a_fault_injected_zoo_is_scored_through_its_wrapper(self, profile):
        """``FaultInjector.__getattr__`` forwards ``firing_video`` to the
        model it wraps; a cache that took it would roll no fault."""
        zoo = faulty_zoo(
            default_zoo(seed=3), fault_profile(profile).with_seed(5)
        )
        assert callable(zoo.detector.firing_video)  # reachable, not used
        cache = make_cache(zoo, chunk_clips=16)
        chunks = range(0, VIDEO.meta.n_clips, 16)
        for kind, labels in LABELS.items():
            model = zoo.detector if kind == "object" else zoo.recognizer
            for label in labels:
                for clip_id in chunks:
                    for _attempt in range(20):
                        try:
                            cache.counts(kind, label, clip_id)
                        except (ModelExecutionError, CorruptedOutputError):
                            continue
                        break
                # every chunk ended on a call the wrapper rolled a fate for
                key = ("score_video", VIDEO.video_id, label, "video")
                assert model._attempts[key] >= len(chunks)
        assert zoo.detector.injected_faults > 0
        assert zoo.recognizer.injected_faults > 0

    def test_corrupted_scores_leave_the_chunk_unbuilt_and_a_retry_rescores(self):
        zoo = faulty_zoo(
            default_zoo(seed=3), FaultProfile(nan_rate=0.9, seed=2)
        )
        cache = make_cache(zoo, chunk_clips=16)
        key = ("score_video", VIDEO.video_id, "faucet", "video")
        failures = 0
        while True:
            try:
                count, _units = cache.counts("object", "faucet", 20)
            except CorruptedOutputError:
                failures += 1
                assert not cache._ready["object", "faucet"][20 // 16]
                assert not cache._counts["object", "faucet"].any()
                assert zoo.detector._attempts[key] == failures
                continue
            break
        assert failures >= 1
        assert zoo.detector._attempts[key] == failures + 1
        assert zoo.detector.fault_counts["nan"] == failures
        assert count == make_cache(default_zoo(seed=3)).counts(
            "object", "faucet", 20
        )[0]

    #: ``(profile, fault seed)`` -> what commit 9075910, whose models drew
    #: every score eagerly, reported for :meth:`armed_fleet`.
    PARENT = {
        ("chaos", 9): dict(
            detector={"transient": 2, "timeout": 1, "nan": 3, "stuck": 2},
            recognizer={"transient": 1, "timeout": 0, "nan": 1, "stuck": 0},
            retries=7, giveups=1, units=12380, cached=8395, ms=1133200.0,
            degraded={"a": 0, "b": 1, "c": 0},
        ),
        ("flaky", 7): dict(
            detector={"transient": 4, "timeout": 0, "nan": 0, "stuck": 0},
            recognizer={"transient": 3, "timeout": 1, "nan": 1, "stuck": 0},
            retries=7, giveups=2, units=12380, cached=8400, ms=1133200.0,
            degraded={"a": 1, "b": 1, "c": 0},
        ),
    }
    SEQUENCES = {
        "a": [(13, 35), (92, 92)],
        "b": [(13, 35), (66, 66), (69, 70)],
        "c": [(13, 35)],
    }

    @pytest.mark.parametrize("profile, fault_seed", sorted(PARENT))
    def test_an_armed_fleet_sharing_a_cache_rolls_the_parents_faults(
        self, profile, fault_seed
    ):
        zoo = faulty_zoo(
            default_zoo(seed=3), fault_profile(profile).with_seed(fault_seed)
        )
        config = OnlineConfig(
            retry_max_attempts=2, failure_policy="hold_last_estimate",
            cache_chunk_clips=16,
        )
        washing = "washing dishes"
        fleet = FleetRun(zoo, VIDEO, config, queries=[
            QuerySpec("a", Query(objects=["faucet"], action=washing)),
            QuerySpec(
                "b", Query(objects=["person"], action=washing),
                algorithm="svaq",
            ),
            QuerySpec("c", Query(objects=["faucet", "person"], action=washing)),
        ])
        fleet.advance(list(ClipStream(VIDEO.meta)))
        run = fleet.finish()
        meter = zoo.cost_meter
        assert dict(
            detector=zoo.detector.fault_counts,
            recognizer=zoo.recognizer.fault_counts,
            retries=meter.retries(), giveups=meter.giveups(),
            units=meter.units(), cached=meter.cached_units(), ms=meter.ms(),
            degraded={name: len(run[name].degraded_clips) for name in "abc"},
        ) == self.PARENT[profile, fault_seed]
        assert {
            name: run[name].sequences.as_tuples() for name in "abc"
        } == self.SEQUENCES


class TestCharging:
    def test_first_lookup_charges_fresh_units(self):
        zoo = default_zoo(seed=3)
        cache = make_cache(zoo)
        count, units, fresh = cache.lookup("object", "faucet", 5)
        assert fresh
        assert units == VIDEO.meta.geometry.frames_per_clip
        name = zoo.detector.name
        assert zoo.cost_meter.units(name) == units
        assert zoo.cost_meter.ms(name) == pytest.approx(
            units * zoo.detector.profile.ms_per_unit
        )
        assert zoo.cost_meter.cached_units(name) == 0

    def test_repeat_lookup_meters_cached_units(self):
        zoo = default_zoo(seed=3)
        cache = make_cache(zoo)
        first = cache.lookup("action", "washing dishes", 2)
        again = cache.lookup("action", "washing dishes", 2)
        assert first[:2] == again[:2]
        assert first[2] and not again[2]
        name = zoo.recognizer.name
        units = VIDEO.meta.geometry.shots_per_clip
        assert zoo.cost_meter.units(name) == units  # charged once
        assert zoo.cost_meter.cached_units(name) == units

    def test_fresh_plus_cached_equals_serial(self):
        """The Table-8 invariant: across any access pattern, fresh+cached
        units equal what the uncached path would have charged."""
        zoo = default_zoo(seed=3)
        cache = make_cache(zoo, chunk_clips=8)
        accesses = [(kind, label, clip)
                    for kind, labels in LABELS.items()
                    for label in labels
                    for clip in (0, 1, 1, 5, 5, 5, 2)]
        serial = 0
        for kind, label, clip in accesses:
            _, units, _ = cache.lookup(kind, label, clip)
            serial += units
        meter = zoo.cost_meter
        assert meter.units() + meter.cached_units() == serial


#: A feed's ledger input over clips ``[LO, LO + N)``: per label, how many
#: sessions ask each row and the first of them in fleet order (two slots).
LO, N = 8, 6
COLUMNS = [
    ("object", "faucet", [2, 0, 1, 3, 0, 1], [0, 0, 1, 0, 0, 1]),
    ("object", "person", [1, 1, 0, 2, 0, 0], [1, 0, 0, 0, 0, 0]),
    ("action", "washing dishes", [0, 2, 2, 0, 1, 0], [0, 1, 0, 0, 1, 0]),
]


def ledger_over(cache, columns=COLUMNS) -> ChargeLedger:
    """A ledger as a feed opens one: its count columns built first."""
    for kind, label, _, _ in columns:
        cache.counts_block(kind, label, LO, LO + N)
    return ChargeLedger(cache, LO, N, columns, 2)


def consume(ledger, cursor) -> None:
    """What a feed step does to its ledger: stand it again if something
    had it stand down, and move its consumed mark."""
    if not ledger.standing:
        ledger.stand()
    ledger.consumed = cursor


def ask(cache, rows) -> None:
    """What per-clip sessions charge for ``rows`` of :data:`COLUMNS`."""
    for i in rows:
        for kind, label, times, _ in COLUMNS:
            for _ in range(times[i]):
                cache.lookup(kind, label, LO + i)


def reading(zoo) -> dict:
    meter = zoo.cost_meter
    return {
        model: (meter.units(model), meter.cached_units(model), meter.ms(model))
        for model in (zoo.detector.name, zoo.recognizer.name)
    }


class TestChargeLedger:
    """The bulk twin of ``lookup``'s charging, driven directly: every
    reading is the one per-clip lookups of the same rows give, and reading
    the meter is what books the consumed rows."""

    @pytest.mark.parametrize("cuts", [[N], [1, 2, 3, 4, 5, 6], [2, 2, 6]],
                             ids=["once", "each-row", "repeated-cursor"])
    def test_booking_meters_like_per_clip_lookups(self, cuts):
        zoo, ref_zoo = default_zoo(seed=3), default_zoo(seed=3)
        cache, reference = make_cache(zoo), make_cache(ref_zoo)
        ledger = ledger_over(cache)
        booked = 0
        for cut in cuts:
            consume(ledger, cut)
            ask(reference, range(booked, cut))
            booked = cut
            assert reading(zoo) == reading(ref_zoo)
        assert zoo.cost_meter.units() > 0 and zoo.cost_meter.cached_units() > 0

    def test_a_consumed_row_is_decided_when_it_is_booked(self):
        ledger = ledger_over(make_cache(default_zoo(seed=3)))
        consume(ledger, 2)
        assert ledger._booked == 0 and ledger.standing
        ledger.book()
        ledger.book()
        assert ledger._booked == 2

    def test_a_stepper_ledger_reads_rows_filled_after_it_opened(self):
        """A stepper produces its rows as they are consumed: the ledger
        opens over empty columns and decides a row when it is booked."""
        zoo, ref_zoo = default_zoo(seed=3), default_zoo(seed=3)
        cache, reference = make_cache(zoo), make_cache(ref_zoo)
        columns = [(kind, label, [0] * N, [0] * N) for kind, label, _, _ in COLUMNS]
        ledger = ledger_over(cache, columns)
        for i in range(N):
            for (*_, times, owners), (*_, want_times, want_owners) in zip(
                columns, COLUMNS
            ):
                times[i], owners[i] = want_times[i], want_owners[i]
            consume(ledger, i + 1)
            ask(reference, [i])
            assert reading(zoo) == reading(ref_zoo)

    def test_fresh_evaluations_go_to_the_first_asker(self):
        cache = make_cache(default_zoo(seed=3))
        ledger = ledger_over(cache)
        consume(ledger, N)
        ledger.book()
        # (objects, actions) over all rows, then over rows 2 and 3
        assert ledger.fresh(0, 0, N) == (4, 1)
        assert ledger.fresh(1, 0, N) == (3, 2)
        assert ledger.fresh(0, 2, 4) == (2, 1)
        assert ledger.fresh(1, 2, 4) == (1, 0)

    def test_a_row_charged_before_the_ledger_opened_is_nobodys_fresh(self):
        zoo, ref_zoo = default_zoo(seed=3), default_zoo(seed=3)
        cache, reference = make_cache(zoo), make_cache(ref_zoo)
        for charged in (cache, reference):
            charged.lookup("object", "faucet", LO + 3)
        ledger = ledger_over(cache)
        consume(ledger, N)
        ask(reference, range(N))
        assert reading(zoo) == reading(ref_zoo)
        assert ledger.fresh(0, 0, N) == (3, 1)  # row 3's faucet was slot 0's

    def test_release_marks_the_booked_rows_and_no_others(self):
        cache = make_cache(default_zoo(seed=3))
        consume(ledger_over(cache), 3)
        state = cache.state_dict()
        assert cache._ledger is None
        assert state == {"charged": {
            "object:faucet": [[LO, LO], [LO + 2, LO + 2]],
            "object:person": [[LO, LO + 1]],
            "action:washing dishes": [[LO + 1, LO + 2]],
        }}

    def test_a_lookup_between_books_has_the_row_decided_again(self):
        """A ``lookup`` of a row not consumed yet has the ledger book what
        it consumed and stand down; standing again, it takes that row as
        charged — now cached."""
        zoo, ref_zoo = default_zoo(seed=3), default_zoo(seed=3)
        cache, reference = make_cache(zoo), make_cache(ref_zoo)
        ledger = ledger_over(cache)
        consume(ledger, 2)
        assert cache.lookup("object", "faucet", LO + 3)[2]
        assert cache._ledger is None and ledger._booked == 2
        consume(ledger, N)
        assert cache._ledger is ledger
        ask(reference, range(2))
        reference.lookup("object", "faucet", LO + 3)
        ask(reference, range(2, N))
        assert reading(zoo) == reading(ref_zoo)
        assert ledger.fresh(0, 2, N) == (1, 1)

    def test_a_second_ledger_has_the_first_stand_down(self):
        zoo, ref_zoo = default_zoo(seed=3), default_zoo(seed=3)
        cache, reference = make_cache(zoo), make_cache(ref_zoo)
        first = ledger_over(cache)
        consume(first, 3)
        second = ledger_over(cache)
        assert cache._ledger is second and not first.standing
        consume(second, N)
        consume(first, N)
        assert cache._ledger is first and not second.standing
        for rows in (range(3), range(N), range(3, N)):
            ask(reference, rows)
        assert reading(zoo) == reading(ref_zoo)
        assert first.fresh(0, 3, N) == first.fresh(1, 3, N) == (0, 0)

    def test_load_state_dict_has_the_ledger_stand_down(self):
        zoo, ref_zoo = default_zoo(seed=3), default_zoo(seed=3)
        cache, reference = make_cache(zoo), make_cache(ref_zoo)
        restored = {"charged": {"object:faucet": [[LO + 3, LO + 3]]}}
        ledger = ledger_over(cache)
        consume(ledger, 2)
        cache.load_state_dict(restored)
        assert cache._ledger is None
        consume(ledger, N)
        ask(reference, range(2))
        reference.load_state_dict(restored)
        ask(reference, range(2, N))
        assert reading(zoo) == reading(ref_zoo)

    def test_rows_nobody_asked_charge_and_mark_nothing(self):
        zoo = default_zoo(seed=3)
        cache = make_cache(zoo)
        columns = [(kind, label, [0] * N, [0] * N) for kind, label, _, _ in COLUMNS]
        consume(ledger_over(cache, columns), N)
        assert zoo.cost_meter.units() == zoo.cost_meter.cached_units() == 0
        assert cache.state_dict() == {"charged": {}}

    def test_booking_no_new_rows_calls_no_meter(self, monkeypatch):
        zoo = default_zoo(seed=3)
        cache = make_cache(zoo)
        ledger = ledger_over(cache)
        consume(ledger, 3)
        ledger.book()

        def refuse(*args):
            raise AssertionError("metered an empty booking")

        monkeypatch.setattr(zoo.cost_meter, "record", refuse)
        monkeypatch.setattr(zoo.cost_meter, "record_cached", refuse)
        consume(ledger, 3)
        ledger.book()
        assert zoo.cost_meter.units() > 0

    @pytest.mark.parametrize("look", ["units", "copy", "reset"])
    def test_every_meter_observation_books_the_consumed_rows_once(self, look):
        zoo, ref_zoo = default_zoo(seed=3), default_zoo(seed=3)
        cache, reference = make_cache(zoo), make_cache(ref_zoo)
        ledger = ledger_over(cache)
        consume(ledger, 3)
        ask(reference, range(3))
        meter = zoo.cost_meter
        if look == "units":
            assert meter.units() == ref_zoo.cost_meter.units() > 0
        elif look == "copy":
            assert reading(ModelZoo(
                zoo.detector, zoo.recognizer, zoo.tracker, copy.deepcopy(meter)
            )) == reading(ref_zoo)
        else:
            meter.reset()
            ref_zoo.cost_meter.reset()
        consume(ledger, N)
        ask(reference, range(3, N))
        assert reading(zoo) == reading(ref_zoo)

    def test_a_ledger_freed_standing_books_what_was_consumed(self):
        """A cache dropped with its feed mid-chunk frees its standing
        ledger by reference count; the rows consumed are still charged."""
        zoo, ref_zoo = default_zoo(seed=3), default_zoo(seed=3)
        cache, reference = make_cache(zoo), make_cache(ref_zoo)
        consume(ledger_over(cache), 4)
        ask(reference, range(4))
        gc.disable()
        try:
            del cache
            assert not zoo.cost_meter._standing
            assert reading(zoo) == reading(ref_zoo)
        finally:
            gc.enable()

    def test_the_cache_holds_its_ledger_and_the_ledger_the_cache_weakly(self):
        cache = make_cache(default_zoo(seed=3))
        ledger = weakref.ref(ledger_over(cache))
        held = weakref.ref(cache)
        gc.disable()
        try:
            assert cache._ledger is ledger()
            del cache
            assert held() is None and ledger() is None
        finally:
            gc.enable()


class TestCompatibility:
    def test_rejects_other_video(self, zoo):
        cache = make_cache(zoo)
        other = make_kitchen_video(seed=32, duration_s=240.0,
                                   video_id="othervid")
        with pytest.raises(ConfigurationError, match="cache holds video"):
            cache.check_compatible(other.meta, zoo)

    def test_rejects_another_zoo(self, zoo):
        """A second zoo built from the same profiles is another deployment:
        its own meter, its own models."""
        cache = make_cache(zoo)
        cache.check_compatible(VIDEO.meta, zoo)
        twin = ModelZoo(zoo.detector, zoo.recognizer, zoo.tracker, zoo.cost_meter)
        with pytest.raises(ConfigurationError, match="another model zoo"):
            cache.check_compatible(VIDEO.meta, twin)
        with pytest.raises(ConfigurationError, match="another model zoo"):
            cache.check_compatible(VIDEO.meta, default_zoo(seed=3))

    def test_a_session_refuses_another_zoos_cache(self):
        """A seed-5 session handed a seed-3 cache used to read seed 3's
        columns and book its fresh units to seed 3's meter.  A fleet's
        sessions, all on the fleet's zoo, still share its one cache."""
        seed3 = default_zoo(seed=3)
        foreign = make_cache(seed3)
        zoo = default_zoo(seed=5)
        query = Query(objects=["faucet"], action="washing dishes")
        with pytest.raises(ConfigurationError, match="another model zoo"):
            StreamSession.for_query(zoo, query, VIDEO, cache=foreign)
        assert zoo.cost_meter.units() == seed3.cost_meter.units() == 0
        fleet = FleetRun(seed3, VIDEO, OnlineConfig(), [
            QuerySpec("a", query, "svaq"),
            QuerySpec("b", Query(objects=["person"], action="washing dishes"), "svaqd"),
        ], cache=foreign)
        assert {fleet.session(name).cache for name in fleet.live} == {foreign}

    def test_rejects_nonpositive_chunk(self, zoo):
        with pytest.raises(ConfigurationError, match="chunk_clips"):
            make_cache(zoo, chunk_clips=0)


class TestCheckpointing:
    def test_state_round_trip_preserves_charged_set(self):
        zoo = default_zoo(seed=3)
        cache = make_cache(zoo)
        for clip in (0, 1, 2, 7, 9):
            cache.lookup("object", "faucet", clip)
        cache.lookup("action", "washing dishes", 4)
        state = json.loads(json.dumps(cache.state_dict()))

        restored_zoo = default_zoo(seed=3)
        restored = make_cache(restored_zoo)
        restored.load_state_dict(state)
        # Restoring must not re-charge the meter...
        assert restored_zoo.cost_meter.units() == 0
        # ...and previously-charged clips now meter as cached.
        _, units, fresh = restored.lookup("object", "faucet", 7)
        assert not fresh
        assert restored_zoo.cost_meter.units(restored_zoo.detector.name) == 0
        assert (
            restored_zoo.cost_meter.cached_units(restored_zoo.detector.name)
            == units
        )
        # An uncharged clip still charges fresh units.
        _, _, fresh = restored.lookup("object", "faucet", 3)
        assert fresh

    def test_state_dict_is_run_length_encoded(self, zoo):
        fresh_zoo = default_zoo(seed=3)
        cache = make_cache(fresh_zoo)
        for clip in (0, 1, 2, 10, 12):
            cache.lookup("object", "faucet", clip)
        state = cache.state_dict()
        assert state["charged"]["object:faucet"] == [[0, 2], [10, 10], [12, 12]]

    def test_rejects_unknown_kind(self, zoo):
        cache = make_cache(zoo)
        with pytest.raises(ConfigurationError, match="unknown detector kind"):
            cache.load_state_dict({"charged": {"pose:hand": [[0, 1]]}})

    @pytest.mark.parametrize(
        "runs",
        [
            [[1, 2, 3]],          # used to raise ValueError
            [[1]],
            [["a", "b"]],         # TypeError
            [[1.5, 2.5]],         # TypeError
            [[True, 2]],
            7,                    # TypeError
            [7],
            "01",
            None,
            {"0": 1},
            [[5, 100000]],        # marked every clip from 5 to the end
            [[0, VIDEO.meta.n_clips]],
            [[-5, 2]],            # loaded as nothing (a negative slice)
            [[4, 3]],
            [[0, 3], [2, 5]],     # overlapping
            [[0, 3], [3, 5]],
            [[6, 8], [1, 2]],     # descending
        ],
        ids=repr,
    )
    def test_rejects_runs_state_dict_does_not_write(self, runs):
        cache = make_cache(default_zoo(seed=3))
        cache.load_state_dict({"charged": {"object:car": [[0, 0]]}})
        with pytest.raises(ConfigurationError, match="object:car"):
            cache.load_state_dict(
                {"charged": {"object:car": runs, "object:faucet": [[1, 1]]}}
            )
        # refused before anything was marked
        assert cache.state_dict() == {"charged": {"object:car": [[0, 0]]}}

    def test_rejects_a_charged_entry_that_is_not_a_mapping(self):
        cache = make_cache(default_zoo(seed=3))
        with pytest.raises(ConfigurationError, match=r"cache checkpoint\.charged must be a JSON object"):
            cache.load_state_dict({"charged": [1]})  # AttributeError before

    def test_accepts_every_run_state_dict_writes(self):
        cache = make_cache(default_zoo(seed=3))
        last = VIDEO.meta.n_clips - 1
        runs = [[0, 0], [2, 5], [7, 7], [last, last]]
        cache.load_state_dict({"charged": {"object:car": runs}})
        assert cache.state_dict() == {"charged": {"object:car": runs}}


class TestRunsOf:
    def test_empty_and_full(self):
        assert _runs_of(np.zeros(4, dtype=bool)) == []
        assert _runs_of(np.ones(4, dtype=bool)) == [(0, 3)]

    def test_mixed_runs(self):
        mask = np.array([1, 1, 0, 1, 0, 0, 1], dtype=bool)
        assert _runs_of(mask) == [(0, 1), (3, 3), (6, 6)]
