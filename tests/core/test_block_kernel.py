"""The fleet block kernel against the per-clip reference.

A chunkable session (static quotas over a shared detection cache) has
whole cache chunks evaluated by :func:`repro.core.indicators.evaluate_block`
and walks the columns with a cursor; every other session goes clip by clip
through :meth:`ClipEvaluator.evaluate`.  These tests force the *same*
fleet down the per-clip path and require everything observable to match —
at every ``FleetRun.advance`` boundary, not only at the end.
"""

from __future__ import annotations

import gc
import json
import weakref
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import OnlineConfig
from repro.core.predicates import ConjunctivePredicate
from repro.core.query import Query
from repro.core.scheduler import FleetRun, MultiQueryScheduler, QuerySpec
from repro.core.session import StreamSession
from repro.detectors.zoo import default_zoo
from repro.video.stream import ClipStream
from repro.video.synthesis import SceneSpec, TrackSpec, synthesize_video
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
    """Force every session built inside down ``ClipEvaluator.evaluate``;
    a kernel call in there is an error."""
    with mock.patch.object(ConjunctivePredicate, "supports_chunking", False), \
            mock.patch("repro.core.session.evaluate_block",
                       side_effect=AssertionError("kernel call")):
        yield


def logical(stats) -> dict:
    payload = stats.as_dict()
    payload.pop("stage_wall_s")
    return payload


def meter_reading(zoo) -> dict:
    meter = zoo.cost_meter
    return {
        model: (meter.units(model), meter.cached_units(model))
        for model in (zoo.detector.name, zoo.recognizer.name)
    }


# -- the differential property ------------------------------------------------------


@st.composite
def fleet_scripts(draw):
    n_clips = VIDEO.meta.n_clips
    specs = []
    for index in range(draw(st.integers(1, 6))):
        objects = draw(
            st.lists(st.sampled_from(OBJECTS), min_size=1, max_size=3,
                     unique=True)
        )
        overrides = draw(
            st.dictionaries(
                st.sampled_from([*objects, ACTION]), st.integers(0, 6),
                max_size=2,
            )
        )
        specs.append(
            QuerySpec(
                f"s{index}", Query(objects=objects, action=ACTION),
                algorithm="svaq", k_crit_overrides=overrides or None,
            )
        )
    config = OnlineConfig(
        cache_chunk_clips=draw(st.integers(4, 64)),
        predicate_order=draw(st.sampled_from(["user", "selective", "cost"])),
        probe_every=draw(st.sampled_from([0, 1, 3, 5])),
    )
    batches = []
    position = 0
    while position < n_clips:
        size = min(draw(st.integers(1, 16)), n_clips - position)
        batches.append((size, draw(st.booleans()) or draw(st.booleans())))
        position += size
    late = draw(st.integers(0, len(specs) - 1)) if len(specs) > 1 else None
    return {
        "specs": specs,
        "config": config,
        "batches": batches,  # (size, short_circuit)
        "late": late,  # index of the spec registered mid-stream, if any
        "register_at": draw(st.integers(1, n_clips - 1)),
        "cancel": draw(st.integers(0, len(specs) - 1)),
        "cancel_at": draw(st.integers(1, n_clips - 1)),
    }


def play(script) -> dict:
    """Run the script's fleet; record everything observable, boundary by
    boundary.  Registration and the cancel happen at the first boundary at
    or past their clip."""
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
    cancelled = None
    boundaries = []
    stream = ClipStream(VIDEO.meta)
    for size, short_circuit in script["batches"]:
        fleet.advance(
            [stream.next() for _ in range(size)], short_circuit=short_circuit
        )
        if waiting is not None and fleet.position >= script["register_at"]:
            fleet.register(waiting, on_sequence=subscribe(waiting.name))
            waiting = None
        name = specs[script["cancel"]].name
        if (
            cancelled is None
            and fleet.position >= script["cancel_at"]
            and name in fleet.live
        ):
            cancelled = fleet.cancel(name)
        boundaries.append({
            "meter": meter_reading(zoo),
            "stats": {
                name: logical(fleet.context(name).snapshot())
                for name in fleet.live
            },
            "events": len(events),
        })
    run = fleet.finish()
    return {
        "boundaries": boundaries,
        "events": events,
        "cancelled": cancelled,
        "results": run.results,
        "meter": meter_reading(zoo),
    }


def assert_same_result(got, want) -> None:
    assert got.sequences == want.sequences
    assert got.evaluations == want.evaluations
    assert logical(got.stats) == logical(want.stats)
    assert dict(got.selectivity) == dict(want.selectivity)


@settings(max_examples=60, deadline=None)
@given(script=fleet_scripts())
def test_kernel_fleet_equals_per_clip_fleet_at_every_boundary(script):
    with per_clip_only():
        reference = play(script)
    kernel = play(script)
    assert kernel["boundaries"] == reference["boundaries"]
    assert kernel["events"] == reference["events"]
    assert kernel["meter"] == reference["meter"]
    assert set(kernel["results"]) == set(reference["results"])
    for name, result in kernel["results"].items():
        assert_same_result(result, reference["results"][name])
    if reference["cancelled"] is not None:
        assert_same_result(kernel["cancelled"], reference["cancelled"])


def test_the_kernel_fleet_really_takes_the_kernel():
    """Guard for the property above: without the patch the sessions are
    chunkable and the fleet keeps a feed; with it, neither."""
    specs = [QuerySpec("s0", Query(objects=["car"], action=ACTION), "svaq")]
    fleet = FleetRun(default_zoo(seed=3), VIDEO, OnlineConfig(), specs)
    fleet.advance([ClipStream(VIDEO.meta).next()])
    assert fleet.session("s0").chunkable and fleet._feed is not None
    with per_clip_only():
        fleet = FleetRun(default_zoo(seed=3), VIDEO, OnlineConfig(), specs)
        fleet.advance([ClipStream(VIDEO.meta).next()])
        assert not fleet.session("s0").chunkable and fleet._feed is None


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
def test_mid_chunk_snapshot_resume_is_bit_identical(seed):
    """Sibling of ``test_mid_chunk_snapshot_conserves_fresh_units``: with
    nothing prepaid, a snapshot taken *inside* a chunk resumes with every
    counter — the fresh/cached split included — and both meters' totals
    equal to the uninterrupted run's."""
    video, query = random_video(seed, GEOMETRIES["paper"])
    specs = [
        QuerySpec("static", Query(objects=query.objects[:1], action="acting"),
                  algorithm="svaq"),
        QuerySpec("dynamic", query, algorithm="svaqd"),
    ]
    config = OnlineConfig(cache_chunk_clips=4)
    interrupt_at = max(1, video.meta.n_clips // 2)
    if interrupt_at % 4 == 0:
        interrupt_at -= 1

    reference_zoo = default_zoo(seed=3)
    reference = MultiQueryScheduler(reference_zoo, specs, config).run(video)

    zoo_a = default_zoo(seed=3)
    fleet = MultiQueryScheduler(zoo_a, specs, config).start(video)
    clips = ClipStream(video.meta)
    for _ in range(interrupt_at):
        fleet.advance([clips.next()])
    state = json.loads(json.dumps(fleet.state_dict()))
    zoo_b = default_zoo(seed=3)
    resumed = FleetRun(zoo_b, video, config).load_state_dict(state)
    for clip in clips:
        resumed.advance([clip])
    run = resumed.finish()

    for name in ("static", "dynamic"):
        assert run[name].sequences == reference[name].sequences
        assert logical(run[name].stats) == logical(reference[name].stats)
    for model in (reference_zoo.detector.name, reference_zoo.recognizer.name):
        for reading in ("units", "cached_units"):
            assert (
                getattr(zoo_a.cost_meter, reading)(model)
                + getattr(zoo_b.cost_meter, reading)(model)
            ) == getattr(reference_zoo.cost_meter, reading)(model)


# -- lifetime -----------------------------------------------------------------------


@pytest.mark.parametrize("finish", [False, True])
def test_a_dropped_fleet_is_freed_without_the_cycle_collector(finish):
    """Sessions hold their feed, never the reverse, and a finished fleet
    lets go of its sessions: dropping the fleet frees them by reference
    count, so back-to-back runs do not stack up in memory."""
    specs = [
        QuerySpec(f"s{i}", Query(objects=[label], action=ACTION), "svaq")
        for i, label in enumerate(OBJECTS)
    ]
    fleet = FleetRun(default_zoo(seed=3), VIDEO, OnlineConfig(), specs)
    fleet.advance(list(ClipStream(VIDEO.meta, stop_clip=10)))
    session = weakref.ref(fleet.session("s0"))
    feed = weakref.ref(fleet._feed)
    gc.disable()
    try:
        if finish:
            fleet.finish()
        del fleet
        assert session() is None and feed() is None
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
