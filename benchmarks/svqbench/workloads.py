"""The six svqbench workloads.

Each workload drives ``repro`` only through its public facades and wraps
every call into a layer with a tracer span.  The life of one run:

``setup``   generate the inputs from the seed, compute the oracle through an
            independent public path, run the body once (warm-up) and check it
            against the oracle — the checked rows become ``expected``;
``body``    the clocked repetition; appends per-operation CPU nanoseconds;
``check``   compares one repetition's rows with ``expected`` by equality and
            returns ``(attempted, failed)`` operations;
``layers``  traced run only: per-layer numbers from the spans, the counters
            the program exposes, and a few extra passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro import (
    RVAQ,
    ClipStream,
    CompoundQuery,
    IntervalSet,
    MultiQueryScheduler,
    OfflineEngine,
    OnlineEngine,
    Query,
    RankingConfig,
    VideoRepository,
    default_zoo,
    match_sequences,
    parse,
    plan,
)
from repro.cli import main as cli_main
from repro.core import sharded_top_k
from repro.scanstats.critical import critical_value
from repro.service import AdmissionController, QueryService, TenantQuota
from repro.storage import ShardedRepository

import inputs
import verify
from harness import Reps, Tracer, quantile

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Workload sizes.  ``full`` is what BENCHMARK.json's numbers are taken at;
#: ``toy`` is ``--selfcheck``'s (seconds for all six).
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "fleet_static": {"queries": 16, "clips": 3600},
        "fleet_dynamic": {"queries": 16, "clips": 1200},
        "sql_single": {"movies": 4, "scale": 0.25},
        "service_churn": {
            "clips": 1200, "late": 37, "cancel": 83, "migrate": 117,
        },
        "topk_dense": {"videos": 16, "clips": 1200, "limits": (10, 50)},
        "repo_lifecycle": {"movies": 4, "scale": 0.1, "limits": (1, 5, 10)},
    },
    "toy": {
        "fleet_static": {"queries": 4, "clips": 300},
        "fleet_dynamic": {"queries": 4, "clips": 300},
        "sql_single": {"movies": 1, "scale": 0.1},
        "service_churn": {
            "clips": 320, "late": 9, "cancel": 19, "migrate": 29,
        },
        "topk_dense": {"videos": 3, "clips": 200, "limits": (3, 10)},
        "repo_lifecycle": {"movies": 1, "scale": 0.1, "limits": (1, 5)},
    },
}


def _cpu(fn: Any, *args: Any, **kwargs: Any) -> tuple[float, Any]:
    """``(CPU seconds, result)`` of one call on this thread."""
    t0 = time.thread_time()
    result = fn(*args, **kwargs)
    return time.thread_time() - t0, result


def _pooled_f1(pairs: Sequence[tuple[IntervalSet, IntervalSet]]) -> float:
    """Sequence F1 (§5.1 matching, η = 0.5) over the pooled hits, false
    alarms and misses of all (found, truth) pairs.  Pooling, not the mean
    of per-query F1: a query with three true sequences would otherwise
    swing the score by a third of its weight from seed to seed."""
    reports = [match_sequences(found, truth) for found, truth in pairs]
    total = reports[0]
    for report in reports[1:]:
        total = total + report
    return total.f1


class Workload:
    """Common plumbing; see the module docstring for the life of a run."""

    name = ""

    def __init__(self, size: str, tracer: Tracer, workdir: Path) -> None:
        self.p = SIZES[size][self.name]
        self.tr = tracer
        self.workdir = workdir
        self.expected: Any = None
        #: The oracle's verdict on the warm-up rows; False fails every
        #: operation of the run.
        self.oracle_ok = False

    # Subclasses: setup / body / check / canonical / work_units / cost / f1 /
    # layers.

    def verdict(self, matches: Sequence[bool]) -> tuple[int, int]:
        """``(attempted, failed)`` for one repetition's per-operation
        equality results, all failed when the oracle rejected the warm-up."""
        if not self.oracle_ok:
            return len(matches), len(matches)
        return len(matches), sum(1 for ok in matches if not ok)


# -- online: fleets ----------------------------------------------------------------


@dataclass
class _FleetOut:
    run: Any
    zoo: Any
    fleet: Any
    chunked: int


def _online_counters(
    results: Sequence[Any], fleet: Any = None
) -> dict[str, float | None]:
    """What the program itself reports for a set of online results: exact
    counters (``ExecutionStats.as_dict``) and seconds per pipeline stage
    (``stage_wall_s``), plus the fleet's shared rate book where there is
    one — its fold/refresh work belongs to no single query.  The stage
    seconds are read where present (ROADMAP item 5 may move them) and are
    None, not 0, once the program stops exposing them."""
    stats = [result.stats.as_dict() for result in results]
    evaluated = sum(s["predicates_evaluated"] for s in stats)
    skipped = sum(s["predicates_skipped"] for s in stats)
    refresh_skipped = sum(s["refresh_skipped"] for s in stats)
    stages: dict[str, float] | None = None
    for s in stats:
        if "stage_wall_s" in s:
            stages = stages or {}
            for stage, seconds in s["stage_wall_s"].items():
                stages[stage] = stages.get(stage, 0.0) + seconds
    rate_book_stats = getattr(fleet, "rate_book_stats", None)
    book = rate_book_stats() if rate_book_stats is not None else None
    if book is not None:
        refresh_skipped += int(book.get("refresh_skipped", 0))
        if stages is not None:
            for stage in ("estimator", "refresh"):
                stages[stage] = stages.get(stage, 0.0) + book.get(f"{stage}_s", 0.0)
    return {
        "online.predicates_evaluated": evaluated,
        "online.short_circuit_ratio": skipped / max(1, evaluated + skipped),
        "online.refresh_skipped": refresh_skipped,
        "online.conjunct_reorders": sum(s["conjunct_reorders"] for s in stats),
        "online.sequences_emitted": sum(s["sequences_emitted"] for s in stats),
        **{
            # A stage that never ran is absent from the mapping: 0 seconds.
            f"online.stage.{stage}_s":
                None if stages is None else stages.get(stage, 0.0)
            for stage in ("evaluate", "quotas", "estimator", "refresh", "assemble")
        },
    }


def _detector_counters(zoos: Sequence[Any]) -> dict[str, float]:
    meters = [zoo.cost_meter for zoo in zoos]
    fresh = sum(m.units() for m in meters)
    cached = sum(m.cached_units() for m in meters)
    return {
        "detectors.fresh_units": fresh,
        "detectors.cached_units": cached,
        "detectors.unit_hit_rate": cached / max(1, fresh + cached),
        "detectors.model_ms": sum(m.ms() for m in meters),
        "detectors.retries": sum(m.retries() for m in meters),
        "detectors.giveups": sum(m.giveups() for m in meters),
    }


class Fleet(Workload):
    """16 standing queries over one street scene, clip by clip."""

    algorithm = ""

    def setup(self, seed: int) -> None:
        tr = self.tr
        with tr.span("video.synth"):
            self.video = inputs.street_scene(
                "street", self.p["clips"], inputs.subseed(seed, "street")
            )
        self.zoo_seed = inputs.subseed(seed, "zoo")
        self.specs = inputs.fleet_specs(self.p["queries"], (self.algorithm,))
        geometry = self.video.meta.geometry
        self.truth = {
            spec.name: self.video.truth.query_clips(
                spec.query.objects, spec.query.action, geometry
            )
            for spec in self.specs
        }
        # Oracle: each query alone, on a fresh zoo of the same seed — the
        # scheduler's documented "identical to running each query alone".
        oracle = {}
        for spec in self.specs:
            with tr.span("harness.oracle"):
                alone = OnlineEngine(zoo=default_zoo(seed=self.zoo_seed)).run(
                    spec.query, self.video, self.algorithm
                )
            oracle[spec.name] = alone.sequences.as_tuples()
        self.expected = oracle
        self.oracle_ok = True
        with tr.span("harness.warmup"):
            self.body([])

    def body(self, op_ns: list[int]) -> _FleetOut:
        tr = self.tr
        clock = time.thread_time_ns
        zoo = default_zoo(seed=self.zoo_seed)
        with tr.span("online.start"):
            fleet = MultiQueryScheduler(zoo, self.specs).start(self.video)
        stream = ClipStream(self.video.meta)
        while not stream.end():
            clip = stream.next()
            t0 = clock()
            with tr.span("online.advance"):
                fleet.advance([clip])
            op_ns.append(clock() - t0)
        chunked = 0
        if tr.enabled:
            chunked = sum(fleet.session(n).chunkable for n in fleet.live)
        with tr.span("online.finish"):
            run = fleet.finish()
        return _FleetOut(run, zoo, fleet, chunked)

    def rows(self, out: _FleetOut) -> dict[str, list[tuple[int, int]]]:
        return {
            spec.name: out.run[spec.name].sequences.as_tuples()
            for spec in self.specs
        }

    def check(self, out: _FleetOut) -> tuple[int, int]:
        rows = self.rows(out)
        return self.verdict([
            verify.rows_equal(rows[name], self.expected[name])
            for name in self.expected
        ])

    def canonical(self, out: _FleetOut) -> Any:
        return self.rows(out)

    def work_units(self) -> int:
        return len(self.specs) * self.video.meta.n_clips

    def cost(self, out: _FleetOut) -> float:
        return out.zoo.cost_meter.ms() / self.work_units()

    def f1(self, out: _FleetOut) -> float:
        return _pooled_f1([
            (out.run[spec.name].sequences, self.truth[spec.name])
            for spec in self.specs
        ])

    def layers(self, out: _FleetOut, ops: range, reps: Reps) -> dict[str, float | None]:
        tr = self.tr
        advances = tr.each("online.advance", ops)
        results = [out.run[spec.name] for spec in self.specs]
        # One extra pass to the middle of the stream for the checkpoint.
        fleet = MultiQueryScheduler(
            default_zoo(seed=self.zoo_seed), self.specs
        ).start(self.video)
        for clip in ClipStream(self.video.meta,
                               stop_clip=self.video.meta.n_clips // 2):
            fleet.advance([clip])
        snapshot_s, state = _cpu(fleet.state_dict)
        return {
            "online.start_s": statistics.median(tr.per_op("online.start", ops)),
            "online.advance_s": statistics.median(tr.per_op("online.advance", ops)),
            "online.advance_p50_us": statistics.median(advances) * 1e6,
            "online.advance_p99_us": quantile(advances, 0.99) * 1e6,
            "online.finish_s": statistics.median(tr.per_op("online.finish", ops)),
            "online.chunked_sessions": out.chunked,
            "online.state_bytes": len(json.dumps(state)),
            "online.snapshot_ms": snapshot_s * 1e3,
            **_online_counters(results, out.fleet),
            **_detector_counters([out.zoo]),
        }


class FleetStatic(Fleet):
    name = "fleet_static"
    algorithm = "svaq"


class FleetDynamic(Fleet):
    name = "fleet_dynamic"
    algorithm = "svaqd"


# -- online: one SQL statement at a time ----------------------------------------------


class SqlSingle(Workload):
    """Each statement parsed, planned and streamed alone — nothing shared."""

    name = "sql_single"

    def setup(self, seed: int) -> None:
        tr = self.tr
        with tr.span("video.synth"):
            self.movies = inputs.movies(
                self.p["movies"], self.p["scale"], inputs.subseed(seed, "movies")
            )
        self.zoo_seed = inputs.subseed(seed, "zoo")
        # (text, video, the same query built by hand, ground truth)
        self.statements = []
        for movie in self.movies:
            conj = Query(objects=movie.objects, action=movie.action)
            disj = CompoundQuery((
                (Query(action=movie.action),),
                tuple(Query(objects=[o]) for o in movie.objects),
            ))
            for query, disjunct in ((conj, False), (disj, True)):
                text = inputs.online_sql(
                    movie.action, movie.objects, disjunct=disjunct
                )
                self.statements.append(
                    (text, movie.video, query, self._truth(movie.video, query))
                )
        oracle = []
        for _text, video, query, _truth in self.statements:
            engine = OnlineEngine(zoo=default_zoo(seed=self.zoo_seed))
            with tr.span("harness.oracle"):
                if isinstance(query, CompoundQuery):
                    alone = engine.run_compound(query, video)
                else:
                    alone = engine.run(query, video)
            oracle.append(alone.sequences.as_tuples())
        self.expected = oracle
        self.oracle_ok = True
        with tr.span("harness.warmup"):
            self.body([])

    @staticmethod
    def _truth(video: Any, query: Any) -> IntervalSet:
        """Ground-truth clips of a conjunctive or CNF query: per literal the
        frames where all its labels co-occur, OR-ed within a clause, AND-ed
        across clauses, then projected to clips as ``query_clips`` does."""
        truth = video.truth
        clauses = (
            query.clauses if isinstance(query, CompoundQuery) else ((query,),)
        )
        frames = None
        for clause in clauses:
            any_literal = IntervalSet.empty()
            for literal in clause:
                parts = [truth.action_frames(a) for a in literal.actions]
                parts += [truth.object_frames(o) for o in literal.objects]
                together = parts[0]
                for part in parts[1:]:
                    together = together.intersect(part)
                any_literal = any_literal.union(together)
            frames = any_literal if frames is None else frames.intersect(any_literal)
        return video.meta.geometry.frame_set_to_clips(frames, min_cover=0.5)

    def body(self, op_ns: list[int]) -> list[tuple[Any, Any]]:
        tr = self.tr
        clock = time.thread_time_ns
        out = []
        for text, video, _query, _truth in self.statements:
            zoo = default_zoo(seed=self.zoo_seed)
            t0 = clock()
            with tr.span("sql.parse_plan"):
                compiled = plan(parse(text))
            with tr.span("online.execute"):
                result = compiled.execute_online(OnlineEngine(zoo=zoo), video)
            op_ns.append(clock() - t0)
            out.append((result, zoo))
        return out

    def rows(self, out: list[tuple[Any, Any]]) -> list[list[tuple[int, int]]]:
        return [result.sequences.as_tuples() for result, _zoo in out]

    def check(self, out: list[tuple[Any, Any]]) -> tuple[int, int]:
        return self.verdict([
            verify.rows_equal(got, want)
            for got, want in zip(self.rows(out), self.expected)
        ])

    def canonical(self, out: list[tuple[Any, Any]]) -> Any:
        return self.rows(out)

    def work_units(self) -> int:
        return sum(video.meta.n_clips for _t, video, _q, _tr in self.statements)

    def cost(self, out: list[tuple[Any, Any]]) -> float:
        return sum(zoo.cost_meter.ms() for _r, zoo in out) / self.work_units()

    def f1(self, out: list[tuple[Any, Any]]) -> float:
        return _pooled_f1([
            (result.sequences, truth)
            for (result, _zoo), (_t, _v, _q, truth) in zip(out, self.statements)
        ])

    def layers(
        self, out: list[tuple[Any, Any]], ops: range, reps: Reps
    ) -> dict[str, float | None]:
        tr = self.tr
        movie = self.movies[0]
        text = self.statements[0][0]
        cli_s, code = _cpu(_cli, [
            "query", text, "--movie", movie.title,
            "--scale", str(self.p["scale"]),
        ])
        if code != 0:
            raise RuntimeError(f"repro query exited with {code}")
        return {
            "sql.parse_plan_us": statistics.fmean(tr.each("sql.parse_plan", ops)) * 1e6,
            "sql.statements": len(self.statements),
            "online.execute_s": statistics.median(tr.per_op("online.execute", ops)),
            "cli.query_online_s": cli_s,
            "cli.import_s": _cli_import_s(),
            **_online_counters([result for result, _zoo in out]),
            **_detector_counters([zoo for _result, zoo in out]),
        }


def _cli(argv: list[str]) -> int:
    """``repro.cli.main`` in process with its stdout swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def _cli_json(argv: list[str]) -> tuple[int, Any]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, json.loads(buffer.getvalue())


def _cli_import_s() -> float:
    """Fastest of five ``import repro.cli`` subprocesses (wall): what every
    ``repro`` invocation pays before it does anything."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=env, check=True, timeout=60,
        )
        walls.append(time.perf_counter() - t0)
    return min(walls)


# -- online: the service -----------------------------------------------------------


TENANT = "bench"
STREAMS = ("north", "south")
CLIP_BATCH = 8


def _admission() -> AdmissionController:
    """The quota table both the first and the resumed service run with."""
    return AdmissionController(TenantQuota(max_concurrent=64))


@dataclass
class _ServiceOut:
    finals: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    pushed: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)
    zoos: list[Any] = field(default_factory=list)
    live_after: int = -1
    events: int = 0
    bundle_bytes: int = 0
    #: Open-loop pass only: seconds from a step's due time to each of its
    #: events being read off a subscriber queue.
    emit_s: list[float] = field(default_factory=list)


class ServiceChurn(Workload):
    """Two streams through ``QueryService`` with live registration, one
    cancellation and one snapshot → JSON → resume migration.

    Closed loop, one caller: the service is single-threaded by design and
    its callers wait for ``step``.  A *round* steps every stream once (8
    clips each); ``late``/``cancel``/``migrate`` are round numbers.
    """

    name = "service_churn"

    def setup(self, seed: int) -> None:
        tr = self.tr
        self.videos = {}
        for stream in STREAMS:
            with tr.span("video.synth"):
                self.videos[stream] = inputs.street_scene(
                    stream, self.p["clips"], inputs.subseed(seed, stream)
                )
        self.zoo_seed = inputs.subseed(seed, "zoo")
        mixed = ("svaq", "svaqd")
        self.first = inputs.fleet_specs(4, mixed, prefix="a")
        self.late = inputs.fleet_specs(8, mixed, prefix="b")[4:]
        self.cancelled = (STREAMS[0], self.first[0].name)
        # key -> (stream, spec, first clip seen, clip after the last seen)
        n_clips = self.p["clips"]
        self.views: dict[str, tuple[str, Any, int, int]] = {}
        for stream in STREAMS:
            for spec in self.first:
                stop = n_clips
                if (stream, spec.name) == self.cancelled:
                    stop = self.p["cancel"] * CLIP_BATCH
                self.views[f"{stream}/{spec.name}"] = (stream, spec, 0, stop)
            for spec in self.late:
                self.views[f"{stream}/{spec.name}"] = (
                    stream, spec, self.p["late"] * CLIP_BATCH, n_clips
                )
        # Oracle: every query alone over exactly the clips it saw.
        oracle = {}
        self.truth = {}
        for key, (stream, spec, start, stop) in self.views.items():
            video = self.videos[stream]
            with tr.span("harness.oracle"):
                alone = OnlineEngine(
                    zoo=default_zoo(seed=self.zoo_seed)
                ).start_queries([spec], video, start_clip=start)
                for clip in ClipStream(video.meta, start, stop):
                    alone.advance([clip])
                result = alone.finish()[spec.name]
            oracle[key] = result.sequences.as_tuples()
            self.truth[key] = video.truth.query_clips(
                spec.query.objects, spec.query.action, video.meta.geometry
            ).clipped(start, stop - 1)
        self.expected = oracle
        self.oracle_ok = True
        with tr.span("harness.warmup"):
            self.body([])

    def body(self, op_ns: list[int], due: Any = None) -> _ServiceOut:
        """One full choreography.  ``due`` (open-loop pass only) is called
        before each step with the step's index and returns its due time;
        event latencies are then collected on ``out.emit_s``."""
        tr = self.tr
        clock = time.thread_time_ns
        out = _ServiceOut()
        zoo = default_zoo(seed=self.zoo_seed)
        out.zoos.append(zoo)
        service = QueryService(
            zoo, admission=_admission(), clip_batch=CLIP_BATCH
        )
        queues: dict[str, Any] = {}

        def register(stream: str, spec: Any) -> None:
            with tr.span("service.register"):
                service.register(stream, spec, tenant=TENANT)
            key = f"{stream}/{spec.name}"
            queues[key] = service.subscribe(stream, spec.name)
            out.pushed[key] = []

        def drain(due_at: float | None) -> None:
            for key, queue in queues.items():
                while not queue.empty():
                    event = queue.get_nowait()
                    out.events += 1
                    if due_at is not None:
                        out.emit_s.append(time.perf_counter() - due_at)
                    if event.kind == "sequence":
                        out.pushed[key].append(event.interval.as_tuple())
                    else:
                        out.finals[key] = event.result.sequences.as_tuples()
                        out.results[key] = event.result

        for stream, video in self.videos.items():
            service.add_stream(stream, video)
            for spec in self.first:
                register(stream, spec)
        rounds = 0
        step_index = 0
        while not all(service.done(stream) for stream in STREAMS):
            if rounds == self.p["late"]:
                for stream in STREAMS:
                    for spec in self.late:
                        register(stream, spec)
            if rounds == self.p["cancel"]:
                with tr.span("service.cancel"):
                    service.cancel(*self.cancelled)
            if rounds == self.p["migrate"]:
                with tr.span("service.snapshot"):
                    bundle = json.dumps(service.snapshot().to_dict())
                out.bundle_bytes = len(bundle)
                zoo = default_zoo(seed=self.zoo_seed)
                out.zoos.append(zoo)
                with tr.span("service.resume"):
                    service = QueryService.resume(
                        json.loads(bundle), self.videos, zoo,
                        admission=_admission(), clip_batch=CLIP_BATCH,
                    )
                for stream in STREAMS:
                    for name in service.live(stream):
                        queues[f"{stream}/{name}"] = service.subscribe(
                            stream, name
                        )
            for stream in STREAMS:
                due_at = due(step_index) if due is not None else None
                t0 = clock()
                with tr.span("service.step"):
                    service.step(stream)
                    drain(due_at)
                op_ns.append(clock() - t0)
                step_index += 1
            rounds += 1
        out.live_after = service.admission.usage()[TENANT]["live_queries"]
        return out

    def check(self, out: _ServiceOut) -> tuple[int, int]:
        drained = out.live_after == 0
        return self.verdict([
            drained
            and key in out.finals
            and verify.rows_equal(out.finals[key], want)
            and verify.rows_equal(out.pushed[key], out.finals[key])
            for key, want in self.expected.items()
        ])

    def canonical(self, out: _ServiceOut) -> Any:
        return out.finals

    def work_units(self) -> int:
        return sum(stop - start for _s, _q, start, stop in self.views.values())

    def cost(self, out: _ServiceOut) -> float:
        return sum(zoo.cost_meter.ms() for zoo in out.zoos) / self.work_units()

    def f1(self, out: _ServiceOut) -> float:
        return _pooled_f1([
            (out.results[key].sequences, self.truth[key]) for key in self.views
        ])

    def _bare_fleets_s(self) -> float:
        """CPU seconds of the same specs over the same clip batches through
        bare ``FleetRun.advance`` — no admission, push or migration."""
        t0 = time.thread_time()
        zoo = default_zoo(seed=self.zoo_seed)
        engine = OnlineEngine(zoo=zoo)
        fleets = {
            stream: engine.start_queries(self.first, video)
            for stream, video in self.videos.items()
        }
        streams = {
            stream: ClipStream(video.meta)
            for stream, video in self.videos.items()
        }
        rounds = 0
        while not all(s.end() for s in streams.values()):
            if rounds == self.p["late"]:
                for fleet in fleets.values():
                    for spec in self.late:
                        fleet.register(spec)
            if rounds == self.p["cancel"]:
                fleets[self.cancelled[0]].cancel(self.cancelled[1])
            for stream, clips in streams.items():
                batch = []
                while len(batch) < CLIP_BATCH and not clips.end():
                    batch.append(clips.next())
                fleets[stream].advance(batch)
            rounds += 1
        for fleet in fleets.values():
            fleet.finish()
        return time.thread_time() - t0

    def _open_loop(self) -> dict[str, float]:
        """One pass with step *i* due at ``t0 + i * 4 ms`` whether or not
        the service kept up: event latency is measured from the due time,
        so a stall is charged to every batch it delays.  Wall clock."""
        interval = 0.004
        lag: list[float] = []
        backlog: list[int] = []
        t0 = time.perf_counter() + 0.01

        def due(index: int) -> float:
            due_at = t0 + index * interval
            now = time.perf_counter()
            while now < due_at:  # busy-wait: a sleep would add its own jitter
                now = time.perf_counter()
            lag.append(now - due_at)
            backlog.append(int((now - t0) / interval) - index)
            return due_at

        tracing, self.tr.enabled = self.tr.enabled, False
        try:
            out = self.body([], due)
        finally:
            self.tr.enabled = tracing
        emit = out.emit_s
        return {
            "service.emit_p50_ms": statistics.median(emit) * 1e3,
            "service.emit_p99_ms": quantile(emit, 0.99) * 1e3,
            "service.backlog_max": max(backlog),
            "service.schedule_lag_max_ms": max(lag) * 1e3,
        }

    def layers(self, out: _ServiceOut, ops: range, reps: Reps) -> dict[str, float | None]:
        tr = self.tr
        steps = tr.each("service.step", ops)
        bare = min(self._bare_fleets_s() for _ in range(3))
        results = [out.results[key] for key in self.views]
        return {
            "service.step_p99_ms": quantile(steps, 0.99) * 1e3,
            "service.step_max_ms": max(steps) * 1e3,
            "service.register_p50_us":
                statistics.median(tr.each("service.register", ops)) * 1e6,
            "service.cancel_us":
                statistics.median(tr.each("service.cancel", ops)) * 1e6,
            "service.snapshot_ms":
                statistics.median(tr.each("service.snapshot", ops)) * 1e3,
            "service.resume_ms":
                statistics.median(tr.each("service.resume", ops)) * 1e3,
            "service.bundle_bytes": out.bundle_bytes,
            "service.events_pushed": out.events,
            "service.overhead_ratio": reps.run_cpu_s / bare,
            **self._open_loop(),
            **_online_counters(results),
            **_detector_counters(out.zoos),
        }


# -- offline -----------------------------------------------------------------------


@dataclass
class _OfflineOut:
    engine: Any = None
    zoo: Any = None
    results: list[Any] = field(default_factory=list)
    rows: list[list[tuple[str, int, int, float]]] = field(default_factory=list)
    #: CPU nanoseconds per statement, SQL text → localized rows.
    statement_ns: list[int] = field(default_factory=list)
    #: CPU nanoseconds per statement up to the point it can execute.
    start_ns: list[int] = field(default_factory=list)


class Offline(Workload):
    """Ranked SQL statements over a saved repository: text in, localized
    rows out.  Subclasses say where the repository comes from."""

    #: (text, query, k) per statement, filled by ``setup``.
    statements: list[tuple[str, Query, int]]

    def __init__(self, size: str, tracer: Tracer, workdir: Path) -> None:
        super().__init__(size, tracer, workdir)
        self.repo_dir = workdir / f"{self.name}-repo"
        self.result_f1 = 0.0

    def open_engine(self) -> OfflineEngine:
        with self.tr.span("storage.open"):
            repo = VideoRepository.load(self.repo_dir)
        return OfflineEngine(repository=repo)

    def run_statements(self, out: _OfflineOut, engine: OfflineEngine | None) -> None:
        """Every statement, SQL text → localized rows, over ``engine``; with
        None, each over a repository opened for it alone, as one ``repro``
        invocation per query would."""
        tr = self.tr
        clock = time.thread_time_ns
        for text, _query, _k in self.statements:
            t0 = clock()
            out.engine = engine or self.open_engine()
            with tr.span("sql.parse_plan"):
                compiled = plan(parse(text))
            out.start_ns.append(clock() - t0)
            with tr.span("offline.topk"):
                result = compiled.execute_offline(out.engine)
            with tr.span("offline.localize"):
                rows = out.engine.localized(result)
            out.statement_ns.append(clock() - t0)
            out.results.append(result)
            out.rows.append(rows)

    def validate_warmup(self, out: _OfflineOut) -> None:
        """Check the warm-up rows against Pq-Traverse over the same
        repository, then keep them as what every repetition must equal."""
        exact: dict[Query, dict[tuple[int, int], float]] = {}
        ok = True
        scores = []
        for (_text, query, k), result in zip(self.statements, out.results):
            if query not in exact:
                with self.tr.span("harness.oracle"):
                    everything = out.engine.top_k(
                        query, k=10**9, algorithm="pq-traverse"
                    )
                exact[query] = {
                    r.interval.as_tuple(): r.score for r in everything.ranked
                }
            intervals = [r.interval.as_tuple() for r in result.ranked]
            ok &= verify.ranked_rows_valid(
                intervals, [r.score for r in result.ranked], k, exact[query]
            )
            scores.append(verify.ranked_f1(intervals, k, exact[query]))
        self.oracle_ok = ok
        self.result_f1 = statistics.fmean(scores)
        self.expected = out.rows

    def check(self, out: _OfflineOut) -> tuple[int, int]:
        return self.verdict([
            verify.rows_equal(got, want)
            for got, want in zip(out.rows, self.expected)
        ])

    def canonical(self, out: _OfflineOut) -> Any:
        return out.rows

    def work_units(self) -> int:
        return len(self.statements) * self.total_clips

    def cost(self, out: _OfflineOut) -> float:
        return sum(
            r.stats.sorted_accesses + r.stats.reverse_accesses
            + r.stats.random_accesses
            for r in out.results
        ) / len(self.statements)

    def f1(self, out: _OfflineOut) -> float:
        return self.result_f1

    def layers(self, out: _OfflineOut, ops: range, reps: Reps) -> dict[str, float]:
        tr = self.tr
        engine = out.engine
        repo = engine.repository
        topk_s = statistics.median(tr.per_op("offline.topk", ops))
        pairs = sum(r.iterations for r in out.results)
        # Extra passes, each over the statements of one repetition.
        rvaq = RVAQ(repo)
        pq_s = sum(
            _cpu(rvaq.result_sequences, query)[0]
            for _t, query, _k in self.statements
        )
        traverse_s = sum(
            _cpu(engine.top_k, query, k=k, algorithm="pq-traverse")[0]
            for _t, query, k in self.statements
        )
        first_table_s, _table = _cpu(
            VideoRepository.load(self.repo_dir).table,
            self.statements[0][1].action,
        )
        on_disk = sum(
            f.stat().st_size for f in self.repo_dir.rglob("*") if f.is_file()
        )
        return {
            "sql.parse_plan_us": statistics.fmean(tr.each("sql.parse_plan", ops)) * 1e6,
            "sql.statements": len(self.statements),
            "offline.pq_s": pq_s,
            "offline.candidates":
                statistics.fmean(len(r.p_q) for r in out.results),
            "offline.topk_s": topk_s,
            "offline.pairs": pairs,
            "offline.us_per_pair": topk_s / max(1, pairs) * 1e6,
            "offline.sorted_accesses":
                sum(r.stats.sorted_accesses for r in out.results),
            "offline.reverse_accesses":
                sum(r.stats.reverse_accesses for r in out.results),
            "offline.random_accesses":
                sum(r.stats.random_accesses for r in out.results),
            "offline.localize_s":
                statistics.median(tr.per_op("offline.localize", ops)),
            "offline.statement_p50_ms":
                statistics.median(out.statement_ns) / 1e6,
            "offline.pq_traverse_s": traverse_s,
            "offline.rvaq_vs_traverse_cpu": topk_s / traverse_s,
            "storage.open_ms":
                statistics.median(tr.each("storage.open", ops)) * 1e3,
            "storage.first_table_ms": first_table_s * 1e3,
            "storage.bytes_on_disk": on_disk,
            "storage.bytes_per_clip": on_disk / self.total_clips,
            **self._sharded(repo),
        }

    def _sharded(self, repo: VideoRepository) -> dict[str, float]:
        """The statements again over a 4-way split, serial executor; rows
        must equal the single exact-score engine's — and ``repro topk
        --json``'s, which prints exact scores too."""
        exact_engine = OfflineEngine(
            repository=repo, config=RankingConfig(require_exact_scores=True)
        )
        sharded = ShardedRepository.split(repo, 4)
        cpu_s = cli_s = 0.0
        rounds = 0
        per_shard = [0, 0, 0, 0]
        for _text, query, k in self.statements:
            want = exact_engine.localized(exact_engine.top_k(query, k=k))
            seconds, result = _cpu(sharded_top_k, sharded, query, k, executor="serial")
            if not verify.rows_equal(result.rows, want):
                raise RuntimeError(f"sharded rows diverged for {query.describe()}")
            cpu_s += seconds
            rounds += result.rounds
            for report in result.per_shard:
                per_shard[report.shard] += report.iterations
            seconds, (code, payload) = _cpu(_cli_json, [
                "topk", str(self.repo_dir), "--action", query.action,
                "--objects", *query.objects, "--k", str(k), "--json",
            ])
            if code != 0 or not verify.rows_equal(payload["rows"], want):
                raise RuntimeError(f"repro topk rows diverged for {query.describe()}")
            cli_s += seconds
        return {
            "offline.sharded_serial_s": cpu_s,
            "offline.sharded_rounds": rounds,
            "offline.shard_pair_skew":
                max(per_shard) / max(1e-9, statistics.fmean(per_shard)),
            "cli.topk_s": cli_s,
        }


class TopkDense(Offline):
    name = "topk_dense"

    def setup(self, seed: int) -> None:
        tr = self.tr
        with tr.span("storage.build"):
            repo = inputs.dense_repository(
                self.p["videos"], self.p["clips"], inputs.subseed(seed, "dense")
            )
        self.total_clips = repo.total_clips
        with tr.span("storage.save"):
            repo.save(self.repo_dir, format=3)
        self.statements = []
        for n_objects in (1, 2):
            objects = inputs.DENSE_OBJECTS[:n_objects]
            query = Query(objects=objects, action=inputs.DENSE_ACTION)
            for k in self.p["limits"]:
                text = inputs.ranked_sql(inputs.DENSE_ACTION, objects, k)
                self.statements.append((text, query, k))
        with tr.span("harness.warmup"):
            out = self.body([])
        self.validate_warmup(out)

    def body(self, op_ns: list[int]) -> _OfflineOut:
        out = _OfflineOut()
        self.run_statements(out, self.open_engine())
        op_ns.extend(out.statement_ns)
        return out

    def layers(self, out: _OfflineOut, ops: range, reps: Reps) -> dict[str, float]:
        return {
            **super().layers(out, ops, reps),
            "storage.save_s": statistics.median(self.tr.each("storage.save")),
        }


class RepoLifecycle(Offline):
    name = "repo_lifecycle"

    def setup(self, seed: int) -> None:
        tr = self.tr
        with tr.span("video.synth"):
            self.movies = inputs.movies(
                self.p["movies"], self.p["scale"], inputs.subseed(seed, "movies")
            )
        self.zoo_seed = inputs.subseed(seed, "zoo")
        self.total_clips = sum(m.video.meta.n_clips for m in self.movies)
        self.statements = []
        for movie in self.movies:
            for n_objects in (1, 2):
                objects = movie.objects[:n_objects]
                query = Query(objects=objects, action=movie.action)
                for k in self.p["limits"]:
                    text = inputs.ranked_sql(movie.action, objects, k)
                    self.statements.append((text, query, k))
        with tr.span("harness.warmup"):
            out = self.body([])
        self.validate_warmup(out)

    def body(self, op_ns: list[int]) -> _OfflineOut:
        tr = self.tr
        out = _OfflineOut()
        out.zoo = default_zoo(seed=self.zoo_seed)
        writer = OfflineEngine(zoo=out.zoo)
        for movie in self.movies:
            with tr.span("storage.ingest_video"):
                writer.ingest_many(
                    [movie.video], movie.ingest_objects, [movie.action]
                )
        with tr.span("storage.save"):
            writer.repository.save(self.repo_dir, format=3)
        self.run_statements(out, None)
        # The operation is the cold start of a query — saved directory and
        # SQL text to a statement ready to execute.  What executing it costs
        # over these sparse P_q is decided by the seed (0 to 5 candidate
        # sequences a query): the median statement spreads 15-22 % over ten
        # seeds opened cold and 36-70 % warm, against 5-9 % for the start.
        op_ns.extend(out.start_ns)
        return out

    def work_units(self) -> int:
        return self.total_clips

    def cost(self, out: _OfflineOut) -> float:
        return out.zoo.cost_meter.ms() / self.total_clips

    def layers(self, out: _OfflineOut, ops: range, reps: Reps) -> dict[str, float]:
        tr = self.tr
        movie = self.movies[0]
        cli_s, code = _cpu(_cli, [
            "query", self.statements[0][0], "--movie", movie.title,
            "--scale", str(self.p["scale"]),
        ])
        if code != 0:
            raise RuntimeError(f"repro query exited with {code}")
        ingests = tr.per_op("storage.ingest_video", ops)
        saves = tr.per_op("storage.save", ops)
        return {
            **super().layers(out, ops, reps),
            "storage.ingest_video_s": statistics.median(ingests),
            "storage.save_s": statistics.median(saves),
            "storage.ingest_clips_per_s":
                self.total_clips / min(i + s for i, s in zip(ingests, saves)),
            "cli.query_offline_s": cli_s,
            "cli.import_s": _cli_import_s(),
            **_detector_counters([out.zoo]),
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        FleetStatic, FleetDynamic, SqlSingle, ServiceChurn, TopkDense,
        RepoLifecycle,
    )
}


def scanstats_probe() -> dict[str, float]:
    """Mean CPU µs of ``critical_value`` over a fixed grid, first pass
    (memo cold — call this before anything else touches it) and second."""
    grid = [
        (p, w, n)
        for p in (0.01, 0.03, 0.1, 0.3)
        for w in (10, 30)
        for n in (600, 6000)
    ]
    passes = []
    for _ in range(2):
        t0 = time.thread_time()
        for p, w, n in grid:
            critical_value(p, w, n, 0.05)
        passes.append((time.thread_time() - t0) / len(grid) * 1e6)
    return {
        "scanstats.critical_cold_us": passes[0],
        "scanstats.critical_warm_us": passes[1],
    }
