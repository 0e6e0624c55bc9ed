#!/usr/bin/env python
"""Online multi-query throughput: shared detection cache vs serial sessions.

A monitoring deployment runs many standing queries against one stream.  The
serial reference executes each query in its own session with
``cache_detections=False`` — one ``score_clip`` model pass per evaluated
predicate per clip, the pre-cache hot path.  The shared path runs the same
fleet through one :class:`repro.core.scheduler.FleetRun`: all
sessions advance clip-by-clip in lockstep over one
:class:`~repro.detectors.cache.DetectionScoreCache`, so each frame/shot is
scored at most once for the whole fleet.

For every workload the two legs are asserted **result- and meter-identical**
before any timing is reported:

* per query: identical sequences and per-clip evaluations;
* per query: identical execution stats up to the cache-hit counters (zero
  on the reference) and wall-clock stage times;
* per model: ``serial fresh units == shared fresh units + shared cached
  units`` — the cache only moves work, it never loses accounting.

Writes ``BENCH_online_throughput.json``::

    {"workloads": [{"name": ..., "n_queries": ..., "n_clips": ...,
                    "serial": {"wall_s": ..., "clips_per_s": ...,
                               "fresh_units": ...},
                    "shared": {..., "cached_units": ..., "hit_rate": ...},
                    "speedup": ...}, ...]}

A second leg (``skew_cost``) measures the adaptive conjunct optimizer on
a skewed-cost workload: the object detector runs at 10x its profile
latency while the action recognizer stays cheap, and the query lists the
expensive non-selective object *first*.  A :class:`WallCostMeter` burns
real wall time proportional to every simulated millisecond charged, so
``predicate_order="cost"`` (cheap likely-to-fail predicate first) must
beat the fixed user order on the clock, not just on paper.  Before any
timing, the serial and chunked paths are asserted result- and
meter-identical per order, and the adaptive session is asserted to keep
the chunked fast path.

``--smoke`` shrinks the sweep to a seconds-long CI sanity run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import OnlineConfig  # noqa: E402
from repro.core.engine import OnlineEngine  # noqa: E402
from repro.core.query import Query  # noqa: E402
from repro.core.scheduler import as_specs  # noqa: E402
from repro.core.session import StreamSession  # noqa: E402
from repro.detectors.cost import CostMeter  # noqa: E402
from repro.detectors.profiles import CENTERTRACK, I3D, MASK_RCNN  # noqa: E402
from repro.detectors.zoo import build_zoo, default_zoo  # noqa: E402
from repro.video.stream import ClipStream  # noqa: E402
from repro.video.synthesis import (  # noqa: E402
    SceneSpec,
    TrackSpec,
    synthesize_video,
)

OBJECT_POOL = ("car", "person", "bicycle", "dog")
ACTION = "crossing"

#: Skewed-cost leg: the detector runs this many times its profile latency.
SKEW_MULTIPLIER = 10.0
#: Real seconds burned per simulated millisecond charged to the meter —
#: scales the simulated cost skew into measurable wall time while keeping
#: the smoke leg under a few seconds.
SKEW_WALL_SCALE = 5e-7
#: The expensive, non-selective object the skew query lists first.
SKEW_OBJECT = "car"
#: Regression floor: cost-based ordering must beat the user order by this
#: factor on the skewed workload.
SKEW_SPEEDUP_FLOOR = 1.3


def build_video(duration_s: float, seed: int):
    """One busy street scene every workload streams."""
    tracks = [
        TrackSpec(label=ACTION, kind="action",
                  occupancy=0.2, mean_duration_s=15.0),
    ]
    for i, label in enumerate(OBJECT_POOL):
        tracks.append(
            TrackSpec(
                label=label, kind="object",
                occupancy=0.08 + 0.06 * i,
                mean_duration_s=8.0,
                correlate_with=ACTION if i % 2 == 0 else None,
                correlation=0.85 if i % 2 == 0 else 0.0,
            )
        )
    spec = SceneSpec(
        video_id="street", duration_s=duration_s, tracks=tuple(tracks)
    )
    return synthesize_video(spec, seed=seed)


def build_queries(n_queries: int) -> list[Query]:
    """A fleet with heavy label overlap — the regime the cache targets."""
    queries = []
    for i in range(n_queries):
        objects = [OBJECT_POOL[i % len(OBJECT_POOL)]]
        if i % 2:
            objects.append(OBJECT_POOL[(i + 1) % len(OBJECT_POOL)])
        if i % 3 == 2:
            objects.append(OBJECT_POOL[(i + 2) % len(OBJECT_POOL)])
        queries.append(Query(objects=objects, action=ACTION))
    return queries


def run_serial(queries, video, *, dynamic: bool):
    """The reference: one uncached session per query, streamed in turn."""
    zoo = default_zoo(seed=3)
    config = OnlineConfig(cache_detections=False)
    results = []
    t0 = time.perf_counter()
    for query in queries:
        session = StreamSession.for_query(
            zoo, query, video, config, dynamic=dynamic
        )
        stream = ClipStream(video.meta)
        while not stream.end():
            session.process(stream.next())
        results.append(session.finish())
    wall = time.perf_counter() - t0
    return wall, results, zoo


def run_shared(queries, video, *, dynamic: bool):
    """The shared path: lockstep fleet over one detection cache plus (for
    SVAQD) one shared rate book — duplicate queries share a rate series."""
    zoo = default_zoo(seed=3)
    specs = as_specs(queries, algorithm="svaqd" if dynamic else "svaq")
    engine = OnlineEngine(zoo)
    t0 = time.perf_counter()
    fleet = engine.start_queries(specs, video)
    stream = ClipStream(video.meta)
    while not stream.end():
        fleet.advance([stream.next()])
    on_blocks = sum(fleet.session(name).chunkable for name in fleet.live)
    run = fleet.finish()
    wall = time.perf_counter() - t0
    results = [run[spec.name] for spec in specs]
    return wall, results, zoo, fleet.rate_book_stats(), on_blocks


def assert_identical(serial_results, serial_zoo, shared_results, shared_zoo):
    """The equivalence contract timing rests on (see module docstring)."""
    for reference, result in zip(serial_results, shared_results):
        assert result.sequences == reference.sequences, "sequences diverged"
        assert result.evaluations == reference.evaluations, (
            "per-clip evaluations diverged"
        )
        ref_stats = reference.stats.as_dict()
        shr_stats = result.stats.as_dict()
        for stats in (ref_stats, shr_stats):
            stats.pop("stage_wall_s")
            stats.pop("detector_cache_hits")
            stats.pop("recognizer_cache_hits")
            stats.pop("cache_hit_rate")
            # Bucket-skip accounting lives on the fleet's rate book in the
            # shared leg, per-session in the serial one.
            stats.pop("refresh_skipped")
        assert ref_stats == shr_stats, "execution stats diverged"
    for model in (serial_zoo.detector.name, serial_zoo.recognizer.name):
        serial_fresh = serial_zoo.cost_meter.units(model)
        shared_fresh = shared_zoo.cost_meter.units(model)
        shared_cached = shared_zoo.cost_meter.cached_units(model)
        assert serial_fresh == shared_fresh + shared_cached, (
            f"meter invariant broken for {model}: "
            f"{serial_fresh} != {shared_fresh} + {shared_cached}"
        )


def aggregate_stages(results) -> dict[str, float]:
    """Fleet-total wall seconds per pipeline stage, across all queries."""
    totals: dict[str, float] = {}
    for result in results:
        for stage, wall in result.stats.stage_wall_s.items():
            totals[stage] = totals.get(stage, 0.0) + wall
    return {stage: round(wall, 6) for stage, wall in sorted(totals.items())}


def run_workload(
    name: str,
    n_queries: int,
    video,
    *,
    dynamic: bool,
    repeats: int,
) -> dict:
    queries = build_queries(n_queries)
    n_clips = video.meta.n_clips

    # Untimed warmup: module-level memos (critical values, Naus tails,
    # per-video score vectors) would otherwise be paid by whichever leg
    # happens to run first.
    run_serial(queries, video, dynamic=dynamic)
    *_, on_blocks = run_shared(queries, video, dynamic=dynamic)

    serial_wall = shared_wall = float("inf")
    for _ in range(repeats):
        wall, serial_results, serial_zoo = run_serial(
            queries, video, dynamic=dynamic
        )
        serial_wall = min(serial_wall, wall)
        wall, shared_results, shared_zoo, book_stats, _ = run_shared(
            queries, video, dynamic=dynamic
        )
        shared_wall = min(shared_wall, wall)
        assert_identical(
            serial_results, serial_zoo, shared_results, shared_zoo
        )

    total_clips = n_queries * n_clips
    cached = shared_zoo.cost_meter.cached_units()
    fresh = shared_zoo.cost_meter.units()
    # Stage breakdown: per-session wall time by pipeline stage.  In the
    # shared leg the estimator/refresh work of SVAQD moves off the
    # sessions into the rate book's single flush (all of it booked as
    # estimator time), reported alongside.
    shared_stages = aggregate_stages(shared_results)
    if book_stats is not None:
        shared_stages["estimator"] = round(
            shared_stages.get("estimator", 0.0) + book_stats["estimator_s"], 6
        )
    row = {
        "name": name,
        "algorithm": "svaqd" if dynamic else "svaq",
        "n_queries": n_queries,
        "n_clips": n_clips,
        "aggregate_clips": total_clips,
        "serial": {
            "wall_s": round(serial_wall, 6),
            "clips_per_s": round(total_clips / serial_wall, 1),
            "fresh_units": serial_zoo.cost_meter.units(),
            "stages": aggregate_stages(serial_results),
        },
        "shared": {
            "wall_s": round(shared_wall, 6),
            "clips_per_s": round(total_clips / shared_wall, 1),
            "fresh_units": fresh,
            "cached_units": cached,
            "unit_hit_rate": round(cached / (fresh + cached), 4)
            if fresh + cached
            else 0.0,
            "stages": shared_stages,
            "block_sessions": on_blocks,
        },
        "speedup": round(serial_wall / shared_wall, 3),
    }
    if book_stats is not None:
        row["shared"]["rate_sharing"] = {
            "groups": int(book_stats["groups"]),
            "members": int(book_stats["members"]),
            "refresh_skipped": int(book_stats["refresh_skipped"]),
        }
    return row


class WallCostMeter(CostMeter):
    """A cost meter that burns real wall time for every fresh charge.

    The simulated substrate charges milliseconds without sleeping, so a
    "10x more expensive detector" is invisible to ``time.perf_counter``.
    This meter busy-waits ``units * ms_per_unit * scale`` seconds inside
    :meth:`record`, turning the simulated cost model into measurable wall
    time; cache-served units stay free, exactly as on real hardware.
    """

    def __init__(self, scale_s_per_ms: float = SKEW_WALL_SCALE):
        super().__init__()
        self._scale_s_per_ms = scale_s_per_ms

    def record(self, model: str, units: int, ms_per_unit: float) -> None:
        super().record(model, units, ms_per_unit)
        deadline = time.perf_counter() + units * ms_per_unit * self._scale_s_per_ms
        while time.perf_counter() < deadline:
            pass


def build_skew_video(duration_s: float, seed: int):
    """A scene where the expensive predicate almost never falsifies.

    ``SKEW_OBJECT`` is on screen most of the time (evaluating it first
    buys almost no short-circuiting) while the action is rare — the
    cheap recognizer falsifies most clips on its own."""
    spec = SceneSpec(
        video_id="skew",
        duration_s=duration_s,
        tracks=(
            TrackSpec(label=ACTION, kind="action",
                      occupancy=0.12, mean_duration_s=10.0),
            TrackSpec(label=SKEW_OBJECT, kind="object",
                      occupancy=0.85, mean_duration_s=20.0),
        ),
    )
    return synthesize_video(spec, seed=seed)


def skew_zoo(cost_meter=None):
    """The default line-up with the object detector at 10x latency."""
    heavy = replace(
        MASK_RCNN, ms_per_unit=MASK_RCNN.ms_per_unit * SKEW_MULTIPLIER
    )
    return build_zoo(heavy, I3D, CENTERTRACK, seed=3, cost_meter=cost_meter)


def run_skew_session(video, order: str, *, cached: bool, cost_meter=None):
    """One SVAQ session over the skew scene under the given conjunct
    order; a fresh zoo (and so a fresh detection cache) per call keeps
    repeat runs from being served entirely from memoised scores."""
    zoo = skew_zoo(cost_meter)
    config = OnlineConfig(
        cache_detections=cached,
        cache_chunk_clips=0,  # plan the chunk grain from measured costs
        predicate_order=order,
    )
    query = Query(objects=[SKEW_OBJECT], action=ACTION)
    session = StreamSession.for_query(zoo, query, video, config, dynamic=False)
    chunkable = session.chunkable
    stream = ClipStream(video.meta)
    t0 = time.perf_counter()
    while not stream.end():
        session.process(stream.next())
    result = session.finish()
    wall = time.perf_counter() - t0
    return wall, result, zoo, chunkable


def run_skew_workload(duration_s: float, seed: int, repeats: int) -> dict:
    """The skewed-cost leg: fixed user order vs cost-based ordering.

    Correctness first, clock second: for each order the chunked adaptive
    path is asserted bit-identical to the serial reference (results and
    meter), and the adaptive session must keep the chunked fast path.
    Only then are the two orders timed under a :class:`WallCostMeter`.
    """
    video = build_skew_video(duration_s, seed)
    n_clips = video.meta.n_clips

    references = {}
    for order in ("user", "cost"):
        _, serial, serial_zoo, _ = run_skew_session(
            video, order, cached=False
        )
        _, chunked, chunked_zoo, chunkable = run_skew_session(
            video, order, cached=True
        )
        assert chunkable, f"adaptive order {order!r} lost the chunked path"
        assert chunked.sequences == serial.sequences, "sequences diverged"
        assert chunked.evaluations == serial.evaluations, (
            "per-clip evaluations diverged"
        )
        for model in (serial_zoo.detector.name, serial_zoo.recognizer.name):
            assert chunked_zoo.cost_meter.units(model) == (
                serial_zoo.cost_meter.units(model)
            ), f"meter diverged for {model} under order {order!r}"
        references[order] = chunked
    assert (
        references["user"].sequences == references["cost"].sequences
    ), "cost ordering changed the answer"

    rows = {}
    for order in ("user", "cost"):
        best_wall = float("inf")
        for _ in range(repeats):
            wall, result, zoo, _ = run_skew_session(
                video, order, cached=True, cost_meter=WallCostMeter()
            )
            assert result.sequences == references[order].sequences
            best_wall = min(best_wall, wall)
        rows[order] = {
            "wall_s": round(best_wall, 6),
            "clips_per_s": round(n_clips / best_wall, 1),
            "fresh_units": zoo.cost_meter.units(),
            "simulated_ms": round(zoo.cost_meter.ms(), 1),
            "conjunct_reorders": result.stats.conjunct_reorders,
        }
    return {
        "name": "skew_cost",
        "algorithm": "svaq",
        "n_queries": 1,
        "n_clips": n_clips,
        "detector_multiplier": SKEW_MULTIPLIER,
        "wall_scale_s_per_ms": SKEW_WALL_SCALE,
        "orders": rows,
        "speedup": round(rows["user"]["wall_s"] / rows["cost"]["wall_s"], 3),
    }


def run_chaos(video, profile_name: str, seed: int, out: Path) -> int:
    """Fault-injection smoke leg: the query fleet must finish, degrade
    gracefully and report its retry accounting — zero crashes allowed."""
    from repro.core.context import ExecutionContext
    from repro.detectors.faults import fault_profile, faulty_zoo

    profile = fault_profile(profile_name).with_seed(seed)
    zoo = faulty_zoo(default_zoo(seed=3), profile)
    config = OnlineConfig(
        cache_detections=False,
        retry_max_attempts=4,
        failure_policy="hold_last_estimate",
    )
    queries = build_queries(4)
    context = ExecutionContext()
    t0 = time.perf_counter()
    for dynamic in (False, True):
        for query in queries:
            session = StreamSession.for_query(
                zoo, query, video, config, dynamic=dynamic, context=context
            )
            stream = ClipStream(video.meta)
            while not stream.end():
                session.process(stream.next())
            session.finish()
    wall = time.perf_counter() - t0
    stats = context.snapshot()
    injected = sum(
        model.injected_faults
        for model in (zoo.detector, zoo.recognizer, zoo.tracker)
    )
    print(
        f"chaos [{profile.name}]: {len(queries)} queries x svaq+svaqd  "
        f"injected={injected}  retries={stats.model_retries}  "
        f"giveups={stats.model_giveups}  "
        f"degraded_clips={stats.clips_degraded}  wall={wall:.2f}s"
    )
    payload = {
        "benchmark": "online_throughput",
        "mode": "chaos",
        "fault_profile": profile.name,
        "injected_faults": injected,
        "model_retries": stats.model_retries,
        "model_giveups": stats.model_giveups,
        "clips_degraded": stats.clips_degraded,
        "wall_s": round(wall, 6),
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sweep for CI sanity (seconds, not minutes)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per leg (default: 3, smoke: 1)",
    )
    parser.add_argument(
        "--fault-profile", default="none",
        help="run the chaos smoke leg under this fault profile instead of "
             "the timing sweep (none, transient, flaky, chaos)",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_online_throughput.json",
    )
    args = parser.parse_args(argv)

    duration_s = 120.0 if args.smoke else 1800.0
    repeats = args.repeats or (1 if args.smoke else 3)
    video = build_video(duration_s, args.seed)

    if args.fault_profile != "none":
        return run_chaos(video, args.fault_profile, args.seed, args.out)

    if args.smoke:
        sweep = [
            ("svaq_4q", 4, False),
            ("svaqd_8q", 8, True),
        ]
    else:
        sweep = [
            ("svaq_4q", 4, False),
            ("svaq_8q", 8, False),   # the headline workload
            ("svaq_16q", 16, False),
            ("svaqd_8q", 8, True),
            ("svaqd_16q", 16, True),
        ]

    workloads = []
    for name, n_queries, dynamic in sweep:
        row = run_workload(
            name, n_queries, video, dynamic=dynamic, repeats=repeats
        )
        workloads.append(row)
        print(
            f"{name:10s} queries={n_queries:3d} clips={row['n_clips']:5d}  "
            f"serial={row['serial']['wall_s']*1e3:9.2f}ms  "
            f"shared={row['shared']['wall_s']*1e3:9.2f}ms  "
            f"hit_rate={row['shared']['unit_hit_rate']:.1%}  "
            f"speedup={row['speedup']:6.2f}x"
        )
        # What the shared leg's wall rests on besides the identity asserted
        # above: every query of the fleet, SVAQD too, reads the block path.
        # (A 1.5x shared-vs-serial wall floor stood here; it measured the
        # overhead of the old per-clip quota path — on the full sweep
        # svaqd_8q went from serial 0.567 s / shared 0.280 s to 0.223 s /
        # 0.073 s when both legs took the scalar row update — and a ratio
        # of two ~10 ms smoke legs is noise.  The walls are recorded.)
        if row["shared"]["block_sessions"] != n_queries:
            print(
                f"FAIL: {name}: {row['shared']['block_sessions']} of "
                f"{n_queries} sessions took the block path"
            )
            return 1

    skew_duration_s = 120.0 if args.smoke else 600.0
    skew = run_skew_workload(skew_duration_s, args.seed, repeats)
    workloads.append(skew)
    print(
        f"{skew['name']:10s} queries=  1 clips={skew['n_clips']:5d}  "
        f"user={skew['orders']['user']['wall_s']*1e3:11.2f}ms  "
        f"cost={skew['orders']['cost']['wall_s']*1e3:9.2f}ms  "
        f"reorders={skew['orders']['cost']['conjunct_reorders']:d}  "
        f"speedup={skew['speedup']:6.2f}x"
    )
    # Regression floor for the adaptive conjunct optimizer: on the skewed
    # workload, cost-based ordering must beat the fixed user order on the
    # wall clock (identity between the orders was asserted before timing).
    if args.smoke and skew["speedup"] < SKEW_SPEEDUP_FLOOR:
        print(
            f"FAIL: skew_cost speedup {skew['speedup']:.2f}x is below "
            f"the {SKEW_SPEEDUP_FLOOR}x floor"
        )
        return 1

    payload = {
        "benchmark": "online_throughput",
        "video": {
            "duration_s": duration_s,
            "n_clips": video.meta.n_clips,
            "objects": list(OBJECT_POOL),
            "action": ACTION,
        },
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
