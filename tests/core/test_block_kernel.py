"""The block path against the per-clip reference.

A chunkable session (a conjunctive or CNF query over a shared detection
cache) reads whole cache chunks as columns and walks them with a cursor:
static quotas have the columns evaluated by
:func:`repro.core.indicators.evaluate_block`, dynamic ones by one
:class:`repro.core.indicators.RowStepper` per rate group; every other
session goes clip by clip through :meth:`ClipEvaluator.evaluate`.  These
tests force the *same* fleet down the per-clip path and require everything
observable to match — at every ``FleetRun.advance`` boundary, not only at
the end.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import OnlineConfig
from repro.core.engine import OnlineEngine
from repro.core.query import CompoundQuery, Query
from repro.core.scheduler import FleetRun, MultiQueryScheduler, QuerySpec
from repro.core.session import StreamSession
from repro.detectors.cache import ChargeLedger, DetectionScoreCache
from repro.detectors.zoo import default_zoo
from repro.video.stream import ClipStream
from repro.video.synthesis import SceneSpec, TrackSpec, synthesize_video
from tests.conftest import drive_session
from tests.core.test_online_equivalence import GEOMETRIES, random_video

OBJECTS = ("car", "person", "dog")
ACTION = "crossing"


def street(video_id: str, duration_s: float, seed: int):
    tracks = [
        TrackSpec(label=ACTION, kind="action",
                  occupancy=0.3, mean_duration_s=12.0),
    ]
    for i, label in enumerate(OBJECTS):
        tracks.append(
            TrackSpec(
                label=label, kind="object",
                occupancy=0.15 + 0.15 * i, mean_duration_s=8.0,
                correlate_with=ACTION if i % 2 == 0 else None,
                correlation=0.8 if i % 2 == 0 else 0.0,
            )
        )
    spec = SceneSpec(video_id=video_id, duration_s=duration_s,
                     tracks=tuple(tracks))
    return synthesize_video(spec, seed=seed)


VIDEO = street("kernelvid", 140.0, seed=17)  # 70 clips


@contextmanager
def per_clip_only():
    """Force every session built inside down ``ClipEvaluator.evaluate``
    (and every fleet built inside off rate sharing, which follows the
    same predicate); a kernel call or a stepper in there is an error."""
    with mock.patch.object(
        StreamSession, "_takes_blocks", staticmethod(lambda config, cache: False)
    ), \
            mock.patch("repro.core.session.evaluate_block",
                       side_effect=AssertionError("kernel call")), \
            mock.patch("repro.core.session.RowStepper",
                       side_effect=AssertionError("row stepper")):
        yield


def logical(stats, *also) -> dict:
    """Stats less the wall times, and less the ``also`` counters."""
    payload = stats.as_dict()
    for key in ("stage_wall_s", *also):
        payload.pop(key)
    return payload


def meter_reading(zoo) -> dict:
    meter = zoo.cost_meter
    return {
        model: (meter.units(model), meter.cached_units(model))
        for model in (zoo.detector.name, zoo.recognizer.name)
    }


# -- the differential property ------------------------------------------------------


#: What a CNF member's clauses are drawn from: they share labels with the
#: conjunctive members and with each other, some within one query.
LITERALS = [
    Query(action=ACTION),
    *(Query(objects=[label]) for label in OBJECTS),
    Query(objects=["car"], action=ACTION),
    Query(objects=["person", "dog"]),
]
CONJUNCTIONS = st.lists(
    st.sampled_from(OBJECTS), min_size=1, max_size=3, unique=True
).map(lambda objects: Query(objects=objects, action=ACTION))
CNFS = st.lists(
    st.lists(st.sampled_from(LITERALS), min_size=1, max_size=3).map(tuple),
    min_size=1, max_size=3,
).map(lambda clauses: CompoundQuery(tuple(clauses)))


@st.composite
def fleet_scripts(draw):
    """1–6 sessions over a pool of 1–3 query shapes, conjunctive and CNF
    (so a shape drawn again under SVAQD joins its rate group), SVAQ and
    SVAQD mixed."""
    n_clips = VIDEO.meta.n_clips
    shapes = draw(
        st.lists(st.one_of(CONJUNCTIONS, CNFS), min_size=1, max_size=3)
    )
    specs = []
    for index in range(draw(st.integers(1, 6))):
        query = draw(st.sampled_from(shapes))
        algorithm = draw(st.sampled_from(["svaq", "svaqd", "svaqd"]))
        overrides = None
        if algorithm == "svaq":
            overrides = draw(
                st.dictionaries(
                    st.sampled_from(query.all_labels), st.integers(0, 6),
                    max_size=2,
                )
            ) or None
        specs.append(
            QuerySpec(
                f"s{index}", query,
                algorithm=algorithm, k_crit_overrides=overrides,
            )
        )
    config = OnlineConfig(
        cache_chunk_clips=draw(st.integers(4, 64)),
        predicate_order=draw(st.sampled_from(["user", "cost"])),
        probe_every=draw(st.sampled_from([0, 1, 3, 8])),
        update_on=draw(st.sampled_from(["negative", "all", "positive"])),
    )
    batches = []
    position = 0
    while position < n_clips:
        size = min(draw(st.integers(1, 16)), n_clips - position)
        batches.append((size, draw(st.booleans()) or draw(st.booleans())))
        position += size
    late = draw(st.integers(0, len(specs) - 1)) if len(specs) > 1 else None
    clip = st.integers(1, n_clips - 1)
    return {
        "specs": specs,
        "config": config,
        "batches": batches,  # (size, short_circuit)
        "late": late,  # index of the spec registered mid-stream, if any
        "register_at": draw(clip),
        # (spec index, clip): a group's owner or a passive member, mid-chunk
        "cancels": draw(
            st.lists(
                st.tuples(st.integers(0, len(specs) - 1), clip),
                max_size=2, unique_by=lambda cancel: cancel[0],
            )
        ),
        "migrate_at": draw(st.one_of(st.none(), clip)),
    }


def play(script) -> dict:
    """Run the script's fleet; record everything observable, boundary by
    boundary.  Registration, the cancels and the snapshot -> JSON ->
    resume migration happen at the first boundary at or past their clip."""
    zoo = default_zoo(seed=3)
    fleet = FleetRun(zoo, VIDEO, script["config"])
    events = []

    def subscribe(name):
        return lambda interval: events.append(
            (name, interval.as_tuple(), fleet.position)
        )

    specs = script["specs"]
    waiting = specs[script["late"]] if script["late"] is not None else None
    for spec in specs:
        if spec is not waiting:
            fleet.register(spec, on_sequence=subscribe(spec.name))
    cancels = {specs[index].name: at for index, at in script["cancels"]}
    cancelled = {}
    migrate_at = script["migrate_at"]
    boundaries = []
    stream = ClipStream(VIDEO.meta)
    for size, short_circuit in script["batches"]:
        fleet.advance(
            [stream.next() for _ in range(size)], short_circuit=short_circuit
        )
        if waiting is not None and fleet.position >= script["register_at"]:
            fleet.register(waiting, on_sequence=subscribe(waiting.name))
            waiting = None
        for name, at in cancels.items():
            if (
                name not in cancelled
                and fleet.position >= at
                and name in fleet.live
            ):
                cancelled[name] = fleet.cancel(name)
        state = fleet.state_dict()
        for context in state["contexts"].values():
            context.pop("stage_wall_s")
        boundaries.append({
            "meter": meter_reading(zoo),
            "stats": {
                name: logical(fleet.context(name).snapshot())
                for name in fleet.live
            },
            "events": len(events),
            "quotas": {name: fleet.session(name).quotas() for name in fleet.live},
            "rates": {
                name: dict(fleet.session(name).policy.rates())
                for name in fleet.live
            },
            "state": state,
        })
        if migrate_at is not None and fleet.position >= migrate_at:
            migrate_at = None
            bundle = json.loads(json.dumps(fleet.state_dict()))
            fleet = FleetRun(zoo, VIDEO, script["config"]).load_state_dict(bundle)
            for name in fleet.live:
                fleet.session(name).set_emit_callback(subscribe(name))
    run = fleet.finish()
    return {
        "boundaries": boundaries,
        "events": events,
        "cancelled": cancelled,
        "results": run.results,
        "meter": meter_reading(zoo),
    }


def assert_same_result(got, want, *also) -> None:
    assert got.sequences == want.sequences
    assert got.evaluations == want.evaluations
    assert logical(got.stats, *also) == logical(want.stats, *also)
    assert dict(got.selectivity) == dict(want.selectivity)
    assert dict(got.final_rates) == dict(want.final_rates)


def assert_same_play(got, want, *also) -> None:
    """Two plays of one script observe the same at every boundary and in
    the end, bar the ``also`` counters."""
    assert len(got["boundaries"]) == len(want["boundaries"])
    for got_boundary, want_boundary in zip(got["boundaries"], want["boundaries"]):
        assert got_boundary == want_boundary
    assert got["events"] == want["events"]
    assert got["meter"] == want["meter"]
    for outcome in ("results", "cancelled"):
        assert set(got[outcome]) == set(want[outcome])
        for name, result in got[outcome].items():
            assert_same_result(result, want[outcome][name], *also)


def without_sharing(played) -> dict:
    """A play as rate sharing leaves it unmoved: no grouping table, and no
    bucket-skip counts (a group's owner books them, its other members
    none)."""
    boundaries = []
    for boundary in played["boundaries"]:
        state = {**boundary["state"], "rate_book": None}
        state["contexts"] = {
            name: {**context, "refresh_skipped": 0}
            for name, context in state["contexts"].items()
        }
        stats = {
            name: {**counters, "refresh_skipped": 0}
            for name, counters in boundary["stats"].items()
        }
        boundaries.append({**boundary, "state": state, "stats": stats})
    return {**played, "boundaries": boundaries}


@settings(max_examples=60, deadline=None)
@given(script=fleet_scripts())
def test_block_fleet_equals_per_clip_fleet_at_every_boundary(script):
    """The per-clip fleet (which never shares) is the unshared block fleet
    exactly; sharing moves nothing else than the grouping table and who
    books the bucket skips."""
    with per_clip_only():
        reference = play(script)
    unshared = play(
        {**script, "config": replace(script["config"], share_rate_estimates=False)}
    )
    assert_same_play(unshared, reference)
    shared = play(script)
    assert_same_play(
        without_sharing(shared), without_sharing(unshared), "refresh_skipped"
    )


def test_the_block_fleet_really_takes_the_blocks():
    """Guard for the property above: without the patch the sessions are
    chunkable and the fleet keeps a feed; with it, neither."""
    specs = [
        QuerySpec("s0", Query(objects=["car"], action=ACTION), "svaq"),
        QuerySpec("s1", Query(objects=["car"], action=ACTION), "svaqd"),
    ]
    fleet = FleetRun(default_zoo(seed=3), VIDEO, OnlineConfig(), specs)
    fleet.advance([ClipStream(VIDEO.meta).next()])
    assert fleet.session("s0").chunkable and fleet.session("s1").chunkable
    assert fleet._feed is not None and len(fleet._feed.steppers) == 1
    with per_clip_only():
        fleet = FleetRun(default_zoo(seed=3), VIDEO, OnlineConfig(), specs)
        fleet.advance([ClipStream(VIDEO.meta).next()])
        assert not fleet.session("s0").chunkable
        assert not fleet.session("s1").chunkable and fleet._feed is None


def test_a_dynamic_fleet_steps_one_block_per_rate_group():
    """16 SVAQD queries of 8 shapes: all on the feed, 8 steppers, and the
    two members of a group read the very same columns."""
    shapes = [
        [label for bit, label in enumerate(OBJECTS) if mask >> bit & 1]
        for mask in range(8)  # every subset of the objects, the empty one too
    ]
    specs = [
        QuerySpec(f"s{i}", Query(objects=shapes[i % 8], action=ACTION), "svaqd")
        for i in range(16)
    ]
    fleet = FleetRun(default_zoo(seed=3), VIDEO, OnlineConfig(), specs)
    fleet.advance(list(ClipStream(VIDEO.meta, stop_clip=5)))
    assert all(fleet.session(spec.name).chunkable for spec in specs)
    assert len(fleet._feed.steppers) == 8
    assert fleet._feed.blocks[0] is fleet._feed.blocks[8]


@pytest.mark.parametrize("order", ["user", "cost"])
def test_a_solo_dynamic_run_records_the_same_trace(order):
    query = Query(objects=["car", "dog"], action=ACTION)
    config = OnlineConfig(cache_chunk_clips=16, predicate_order=order)
    with per_clip_only():
        want = drive_session(
            default_zoo(seed=3), query, VIDEO, config, record_trace=True
        )
    got = drive_session(default_zoo(seed=3), query, VIDEO, config, record_trace=True)
    assert len(got.k_crit_trace) == VIDEO.meta.n_clips
    assert got.k_crit_trace == want.k_crit_trace
    assert_same_result(got, want)
    # Clip by clip the rows are folded one at a time, not a block at once.
    session = StreamSession.for_query(
        default_zoo(seed=3), query, VIDEO, config, record_trace=True
    )
    for clip in ClipStream(VIDEO.meta):
        session.process(clip)
    assert session.finish().k_crit_trace == want.k_crit_trace


CNF = CompoundQuery((
    (Query(action=ACTION), Query(objects=["person", "dog"])),
    (Query(objects=["car"]), Query(objects=["dog"]), Query(objects=["person"])),
))


def test_cnf_sessions_take_the_blocks_and_share_a_rate_group():
    """Guard for the CNF half of the property: solo or in a fleet a CNF
    session is chunkable, and two dynamic members of one shape read the
    very same stepper columns, beside a conjunctive group of their own."""
    specs = [
        QuerySpec("or0", CNF, "svaqd"),
        QuerySpec("and", Query(objects=["car"], action=ACTION), "svaqd"),
        QuerySpec("or1", CNF, "svaqd"),
        QuerySpec("static", CNF, "svaq"),
    ]
    fleet = FleetRun(default_zoo(seed=3), VIDEO, OnlineConfig(), specs)
    fleet.advance(list(ClipStream(VIDEO.meta, stop_clip=5)))
    assert all(fleet.session(spec.name).chunkable for spec in specs)
    assert len(fleet._feed.steppers) == 2
    assert fleet._feed.blocks[0] is fleet._feed.blocks[2]
    assert fleet.rate_book_stats()["groups"] == 2
    assert StreamSession.for_query(default_zoo(seed=3), CNF, VIDEO).chunkable
    with per_clip_only():
        assert not StreamSession.for_query(default_zoo(seed=3), CNF, VIDEO).chunkable


@pytest.mark.parametrize("short_circuit", [True, False])
@pytest.mark.parametrize("dynamic", [False, True])
def test_a_solo_cnf_session_equals_per_clip_at_every_boundary(
    dynamic, short_circuit
):
    """One CNF session, traced, advanced in uneven batches across 16-clip
    chunks and moved to a new process mid-chunk: state, counters, meter
    and evaluation rows match the per-clip session at every boundary."""
    config = OnlineConfig(cache_chunk_clips=16, probe_every=3)
    executor = lambda zoo: StreamSession.for_query(
        zoo, CNF, VIDEO, config, dynamic=dynamic, record_trace=True
    )

    def play():
        zoo = default_zoo(seed=3)
        session = executor(zoo)
        stream = ClipStream(VIDEO.meta)
        boundaries = []
        rows = []
        for size in [1, 6, 13, 9, 1, 16, 5, 19]:  # 70 clips
            session.advance(
                [stream.next() for _ in range(size)], short_circuit=short_circuit
            )
            state = session.state_dict()
            boundaries.append((
                state, logical(session.context.snapshot()), meter_reading(zoo),
                session.quotas(), dict(session.policy.rates()),
            ))
            if session.clip_index == 29:  # 13 clips into the second chunk
                rows.extend(session.finish().evaluations)
                session = executor(zoo).load_state_dict(
                    json.loads(json.dumps(state))
                )
        assert stream.end()
        return boundaries, rows, session.finish()

    with per_clip_only():
        want_boundaries, want_rows, want = play()
    got_boundaries, got_rows, got = play()
    for got_boundary, want_boundary in zip(got_boundaries, want_boundaries):
        assert got_boundary == want_boundary
    assert got_rows == want_rows and len(got_rows) == 29
    assert all(len(row.clause_values) == 2 for row in got.evaluations)
    assert len(got.k_crit_trace) == VIDEO.meta.n_clips
    assert got.k_crit_trace == want.k_crit_trace
    assert_same_result(got, want)
    assert got.positive_clips == want.positive_clips
    for label in CNF.all_labels:
        assert got.predicate_indicator_rate(label) == (
            want.predicate_indicator_rate(label)
        )


# -- pay-as-consumed metering -------------------------------------------------------


LONG = street("kernel-long", 2400.0, seed=5)  # 1,200 clips


@pytest.mark.parametrize("cancel_at", [256, 300, 664])
def test_mid_chunk_cancel_meter_matches_per_clip(cancel_at):
    """A session cancelled mid-chunk has paid for the rows it consumed and
    nothing else (the prepaid chunk tail used to stay on the meter)."""
    specs = [
        QuerySpec(f"s{i}", Query(objects=list(objects), action=ACTION), "svaq")
        for i, objects in enumerate(
            [("car",), ("person", "dog"), ("car", "dog"), ("person",)]
        )
    ]

    def run():
        zoo = default_zoo(seed=3)
        fleet = FleetRun(zoo, LONG, OnlineConfig(), specs)
        stream = ClipStream(LONG.meta, stop_clip=cancel_at)
        fleet.advance(list(stream))
        result = fleet.cancel("s0")
        return result, logical(fleet.context("s0").snapshot()), zoo.cost_meter

    with per_clip_only():
        want_result, want_stats, want_meter = run()
    got_result, got_stats, got_meter = run()
    assert got_result.sequences == want_result.sequences
    assert got_stats == want_stats
    assert got_meter.ms() == want_meter.ms()
    assert got_meter.units() == want_meter.units()
    assert got_meter.cached_units() == want_meter.cached_units()


@pytest.mark.parametrize("seed", [13, 29, 43])
@pytest.mark.parametrize("algorithm", ["svaqd", "svaq"])
def test_mid_chunk_snapshot_resume_is_bit_identical(algorithm, seed):
    """Sibling of ``test_mid_chunk_snapshot_conserves_fresh_units``: with
    nothing prepaid, a snapshot taken *inside* a chunk resumes with every
    counter — the fresh/cached split included — and both meters' totals
    equal to the uninterrupted run's.  Its charged runs are the per-clip
    fleet's: exactly the consumed clips someone asked, written back by the
    ledger — decided a chunk at a time when the fleet is all SVAQ — and
    none of the unconsumed ones."""
    video, query = random_video(seed, GEOMETRIES["paper"])
    specs = [
        QuerySpec("static", Query(objects=query.objects[:1], action="acting"),
                  algorithm="svaq"),
        QuerySpec("second", query, algorithm=algorithm),
    ]
    config = OnlineConfig(cache_chunk_clips=4)
    interrupt_at = max(1, video.meta.n_clips // 2)
    if interrupt_at % 4 == 0:
        interrupt_at -= 1

    reference_zoo = default_zoo(seed=3)
    reference = OnlineEngine(reference_zoo, config).run_queries(specs, video)

    def interrupted():
        zoo = default_zoo(seed=3)
        fleet = MultiQueryScheduler(zoo, specs, config).start(video)
        clips = ClipStream(video.meta)
        for _ in range(interrupt_at):
            fleet.advance([clips.next()])
        return zoo, clips, json.loads(json.dumps(fleet.state_dict()))

    with per_clip_only():
        *_, want_state = interrupted()
    zoo_a, clips, state = interrupted()
    for name in ("static", "second"):
        charged = state["sessions"][name]["cache"]["charged"]
        assert charged and charged == want_state["sessions"][name]["cache"]["charged"]
    zoo_b = default_zoo(seed=3)
    resumed = FleetRun(zoo_b, video, config).load_state_dict(state)
    for clip in clips:
        resumed.advance([clip])
    run = resumed.finish()

    for name in ("static", "second"):
        assert run[name].sequences == reference[name].sequences
        assert logical(run[name].stats) == logical(reference[name].stats)
    for model in (reference_zoo.detector.name, reference_zoo.recognizer.name):
        for reading in ("units", "cached_units"):
            assert (
                getattr(zoo_a.cost_meter, reading)(model)
                + getattr(zoo_b.cost_meter, reading)(model)
            ) == getattr(reference_zoo.cost_meter, reading)(model)


def fleet_of_16(algorithm):
    """16 queries of 8 shapes: every subset of the objects, with the action."""
    shapes = [
        [label for bit, label in enumerate(OBJECTS) if mask >> bit & 1]
        for mask in range(8)
    ]
    return [
        QuerySpec(f"s{i}", Query(objects=shapes[i % 8], action=ACTION), algorithm)
        for i in range(16)
    ]


def test_a_static_fleet_decides_a_chunk_once_and_books_by_difference():
    """A fence that needs no clock.  A one-clip advance inside a chunk
    only moves the ledger's consumed mark: no meter call, no decision.  A
    chunk's rows are decided in one pass when they are booked — here when
    the next chunk opens, and for the last one when the meter is read:
    five passes over LONG's 1,200 clips, every row once — and booked by
    difference: at most one fresh and one cached record per model,
    whatever the number of queries and labels."""
    zoo = default_zoo(seed=3)
    fleet = FleetRun(zoo, LONG, OnlineConfig(), fleet_of_16("svaq"))
    passes = []
    decide = ChargeLedger._decide

    def counted(ledger, upto):
        passes.append(upto - ledger._booked)
        decide(ledger, upto)

    meter = zoo.cost_meter
    calls = []

    def counting(verb):
        method = getattr(meter, verb)

        def call(*args):
            calls.append((verb, args[0] if args else None))
            return method(*args)

        return call

    for verb in ("record", "record_cached", "_settle"):
        setattr(meter, verb, counting(verb))
    most = {}
    with mock.patch.object(ChargeLedger, "_decide", counted):
        for clip in ClipStream(LONG.meta):
            del calls[:]
            decided = len(passes)
            fleet.advance([clip])
            if clip.clip_id % 256:
                assert calls == [] and len(passes) == decided
            for call in set(calls):
                most[call] = max(most.get(call, 0), calls.count(call))
        assert passes == [256, 256, 256, 256]
        meter.units()
    assert passes == [256, 256, 256, 256, 176]
    assert most == {
        (verb, model.name): 1
        for verb in ("record", "record_cached")
        for model in (zoo.detector, zoo.recognizer)
    }


# -- charging when read -------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["svaq", "svaqd"])
def test_every_one_clip_advance_reads_the_per_clip_charges(algorithm):
    """A fleet's advance only moves the consumed mark; whatever is read
    after it — the meter or a session's fresh evaluations — books first,
    and reads what per-clip ``lookup`` calls in fleet order charged."""
    config = OnlineConfig(cache_chunk_clips=16)

    def play():
        zoo = default_zoo(seed=3)
        fleet = FleetRun(zoo, VIDEO, config, fleet_of_16(algorithm)[:8])
        boundaries = []
        for clip in ClipStream(VIDEO.meta):
            fleet.advance([clip])
            meter = metered(zoo)  # read first: the read itself books
            fresh = {name: fleet.session(name).fresh_evaluations() for name in fleet.live}
            boundaries.append((meter, fresh))
        return boundaries

    with per_clip_only():
        want = play()
    got = play()
    assert len(got) == VIDEO.meta.n_clips
    assert got == want


@pytest.mark.parametrize("algorithm", ["svaq", "svaqd"])
@pytest.mark.parametrize("stop", [1, 10, 33, 70])
def test_a_fleet_dropped_mid_chunk_meters_what_it_consumed(stop, algorithm):
    """Nobody reads the meter before the fleet goes: its standing ledger
    is freed with the cache, by reference count, and books its consumed
    rows then — what the same fleet finished at that clip meters."""
    specs = [
        QuerySpec(f"s{i}", Query(objects=[label], action=ACTION), algorithm)
        for i, label in enumerate(OBJECTS)
    ]

    def run(finish):
        zoo = default_zoo(seed=3)
        fleet = FleetRun(zoo, VIDEO, OnlineConfig(cache_chunk_clips=16), specs)
        fleet.advance(range(stop))
        if finish:
            fleet.finish()
        return zoo

    finished = metered(run(True))
    gc.disable()
    try:
        zoo = run(False)
        assert not zoo.cost_meter._standing
        assert metered(zoo) == finished
    finally:
        gc.enable()
    assert finished[zoo.detector.name][0] > 0


@pytest.mark.parametrize("algorithm", ["svaq", "svaqd"])
def test_a_meter_polled_from_another_thread_ends_on_the_serial_totals(algorithm):
    """Three videos run on three threads against one meter while a fourth
    thread reads it in a loop: every read books the ledgers standing then,
    under the meter's lock, so a row is booked once whoever reads first."""
    videos = [street(f"poll{i}", 240.0, seed=20 + i) for i in range(3)]
    queries = [Query(objects=[label], action=ACTION) for label in OBJECTS]

    def run(executor, poll):
        zoo = default_zoo(seed=3)
        done = threading.Event()

        def poller():
            while not done.is_set():
                zoo.cost_meter.units()
                zoo.cost_meter.cached_units()

        thread = threading.Thread(target=poller)
        if poll:
            thread.start()
        try:
            engine = OnlineEngine(zoo)
            with ThreadPoolExecutor(3 if executor == "thread" else 1) as pool:
                runs = dict(zip(
                    [video.video_id for video in videos],
                    pool.map(lambda v: engine.run_queries(queries, v, algorithm), videos),
                ))
        finally:
            done.set()
            if poll:
                thread.join(timeout=60)
        assert not thread.is_alive()
        rows = {vid: {n: r.sequences for n, r in run.results.items()} for vid, run in runs.items()}
        return metered(zoo), rows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = run("thread", True)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == run("serial", False)


# -- sharing one cache --------------------------------------------------------------


def metered(zoo) -> dict:
    """:func:`meter_reading` with each model's simulated milliseconds."""
    return {
        model: (*reading, zoo.cost_meter.ms(model))
        for model, reading in meter_reading(zoo).items()
    }


def cache_hits(context) -> tuple[int, int]:
    return context.detector_cache_hits, context.recognizer_cache_hits


@pytest.mark.parametrize(
    "algorithms", [("svaq", "svaq"), ("svaq", "svaqd")],
    ids=["svaq+svaq", "svaq+svaqd"],
)
def test_two_fleets_sharing_a_cache_charge_like_per_clip_fleets(algorithms):
    """Two fleets over one cache, advancing in turn clip by clip: each
    feed's ledger has the other's released before it decides, so every
    boundary reads what per-clip fleets sharing the cache read."""
    config = OnlineConfig(cache_chunk_clips=16)
    queries = [
        [Query(objects=["car"], action=ACTION), Query(objects=["person", "dog"])],
        [Query(objects=["car", "dog"], action=ACTION), Query(objects=["person"])],
    ]

    def play():
        zoo = default_zoo(seed=3)
        cache = DetectionScoreCache(
            zoo, VIDEO.meta, VIDEO.truth, chunk_clips=config.cache_chunk_clips
        )
        fleets = [
            FleetRun(zoo, VIDEO, config, [
                QuerySpec(f"f{i}q{j}", query, algorithm)
                for j, query in enumerate(shapes)
            ], cache=cache)
            for i, (algorithm, shapes) in enumerate(zip(algorithms, queries))
        ]
        boundaries = []
        for clip in ClipStream(VIDEO.meta):
            for fleet in fleets:
                fleet.advance([clip])
                boundaries.append((metered(zoo), {
                    name: cache_hits(fleet.context(name)) for name in fleet.live
                }))
        return boundaries

    with per_clip_only():
        want = play()
    got = play()
    assert len(got) == 2 * VIDEO.meta.n_clips
    for got_boundary, want_boundary in zip(got, want):
        assert got_boundary == want_boundary


def test_an_armed_session_shares_the_cache_with_a_block_fleet():
    """An armed session stays per clip: its ``lookup`` has the fleet's
    standing ledger released first, and reads and writes the charged
    columns the per-clip reference would."""
    config = OnlineConfig(cache_chunk_clips=16)
    armed = OnlineConfig(cache_chunk_clips=16, retry_max_attempts=2)

    def play():
        zoo = default_zoo(seed=3)
        cache = DetectionScoreCache(
            zoo, VIDEO.meta, VIDEO.truth, chunk_clips=config.cache_chunk_clips
        )
        fleet = FleetRun(zoo, VIDEO, config, fleet_of_16("svaq")[:6], cache=cache)
        session = StreamSession.for_query(
            zoo, Query(objects=["person", "car"], action=ACTION), VIDEO,
            armed, dynamic=False, cache=cache,
        )
        boundaries = []
        for clip in ClipStream(VIDEO.meta):
            fleet.advance([clip])
            session.process(clip)
            boundaries.append((metered(zoo), cache_hits(session.context), {
                name: cache_hits(fleet.context(name)) for name in fleet.live
            }))
        return boundaries

    with per_clip_only():
        want = play()
    got = play()
    for got_boundary, want_boundary in zip(got, want):
        assert got_boundary == want_boundary


# -- lifetime -----------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["svaq", "svaqd"])
@pytest.mark.parametrize("finish", [False, True])
def test_a_dropped_fleet_is_freed_without_the_cycle_collector(finish, algorithm):
    """Sessions hold their feed (and it its steppers), never the reverse,
    and a finished fleet lets go of its sessions: dropping the fleet frees
    them by reference count, so back-to-back runs do not stack up in
    memory."""
    specs = [
        QuerySpec(f"s{i}", Query(objects=[label], action=ACTION), algorithm)
        for i, label in enumerate(OBJECTS)
    ]
    fleet = FleetRun(default_zoo(seed=3), VIDEO, OnlineConfig(), specs)
    fleet.advance(list(ClipStream(VIDEO.meta, stop_clip=10)))
    session = weakref.ref(fleet.session("s0"))
    feed = weakref.ref(fleet._feed)
    # The cache holds its standing ledger, which holds the cache weakly.
    cache = weakref.ref(fleet._cache)
    ledger = weakref.ref(fleet._feed.ledger)
    gc.disable()
    try:
        if finish:
            fleet.finish()
        del fleet
        assert session() is None and feed() is None
        assert cache() is None and ledger() is None
    finally:
        gc.enable()


def test_a_snapshotted_session_lets_go_of_its_subscriber():
    """A frozen session can never emit again; holding the callback would
    tie it (and its cache) to the service that subscribed."""
    session = StreamSession.for_query(
        default_zoo(seed=3), Query(objects=["car"], action=ACTION), VIDEO,
        dynamic=False,
    )

    def subscriber(interval):
        raise AssertionError("a frozen session emitted")

    alive = weakref.ref(subscriber)
    session.set_emit_callback(subscriber)
    del subscriber
    assert alive() is not None
    session.mark_snapshotted()
    assert alive() is None


def test_session_instances_keep_a_shared_key_dict():
    """CPython shares instance-dict keys (and keeps attribute loads on
    their fast path) up to 30 attributes per class; the per-clip hot loop
    in ``process`` measurably slows past that (sql_single, fleet_dynamic:
    +1–2 % at 33), which is why the block path's cursor state lives in
    one ``_FeedReader`` object."""
    session = StreamSession.for_query(
        default_zoo(seed=3), Query(objects=["car"], action=ACTION), VIDEO,
    )
    assert len(vars(session)) <= 30
