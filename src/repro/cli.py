"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``demo``
    Build a small synthetic scene and run a streaming query on it.
``query "<sql>" --movie <title> [--scale S] [--k-override K]``
    Parse a query in the paper's SQL dialect and execute it against a
    synthesized Table-2 movie: MERGE-only queries stream online;
    ``ORDER BY RANK ... LIMIT K`` queries ingest the movie and run RVAQ.
``serve [--movies T ...] [--cancel-after N] [--snapshot-at N]``
    Run the streaming service demo over movie streams.
``repo info <dir> [--json]``
    Describe a saved repository and check its column data against the
    manifest's sha256.
``topk <dir> --action A [--objects O ...] [--k K] [--shards N]``
    Answer a top-K query over a saved repository; ``--shards N`` splits it
    in memory and runs the scatter-gather engine, with per-shard
    ``--stats``.
``list``
    List the Table-1 YouTube query sets and the Table-2 movies.

The paper's §5 tables and figures are regenerated by
``benchmarks/paper/run.py``, outside the package.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Sequence

from repro import __version__
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.context import ExecutionStats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="svq-act: querying for actions over videos (reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run a small streaming-query demo")

    query = sub.add_parser("query", help="execute a SQL-dialect query")
    query.add_argument("sql", help="query text in the paper's dialect")
    query.add_argument(
        "--movie", default="Coffee and Cigarettes",
        help="Table-2 movie to synthesize and query",
    )
    query.add_argument("--scale", type=float, default=0.1)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--predicate-order", default="user",
        choices=["user", "cost"],
        help="conjunct evaluation order for online runs: the query's own "
             "order, or cost-based ranking (expected cost to falsify, from "
             "probe-learned selectivity and measured per-model unit costs)",
    )
    query.add_argument(
        "--stats", action="store_true",
        help="print per-stage execution counters after an online run",
    )
    query.add_argument(
        "--stats-json", action="store_true",
        help="print the execution counters as one JSON object (the same "
             "payload the service health endpoint serves per query)",
    )
    query.add_argument(
        "--fault-profile", default="none",
        help="inject simulated detector faults: none, transient, flaky, "
             "chaos (seeded from --seed, so runs are reproducible)",
    )
    query.add_argument(
        "--retries", type=int, default=1,
        help="max attempts per model invocation (1 = no retries)",
    )
    query.add_argument(
        "--on-failure", default="fail_clip",
        choices=["fail_clip", "skip_predicate", "hold_last_estimate"],
        help="per-predicate degradation policy once retries are exhausted",
    )

    serve = sub.add_parser(
        "serve",
        help="run the streaming query service demo: movie streams, live "
             "registration/cancellation, incremental result push",
    )
    serve.add_argument(
        "--movies", nargs="*", default=["Coffee and Cigarettes", "Iron Man"],
        help="Table-2 movies to attach as streams",
    )
    serve.add_argument("--scale", type=float, default=0.1)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--clip-batch", type=int, default=8,
        help="clips each stream advances per scheduling step",
    )
    serve.add_argument(
        "--cancel-after", type=int, default=None, metavar="CLIPS",
        help="cancel the first stream's query once its stream passes "
             "this many clips (demonstrates mid-stream retirement)",
    )
    serve.add_argument(
        "--snapshot-at", type=int, default=None, metavar="CLIPS",
        help="snapshot the service once the first stream passes this "
             "many clips, then resume the bundle in a fresh service "
             "(demonstrates session migration)",
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=4,
        help="per-tenant concurrent-query quota",
    )
    serve.add_argument(
        "--unit-budget", type=int, default=None,
        help="per-tenant model-unit budget (default: unmetered)",
    )
    serve.add_argument(
        "--stats-json", action="store_true",
        help="print the service health/metrics payload as JSON at exit",
    )

    repo = sub.add_parser("repo", help="inspect saved repositories")
    repo_sub = repo.add_subparsers(dest="repo_command", required=True)
    info = repo_sub.add_parser(
        "info", help="describe a saved repository and verify its column data"
    )
    info.add_argument("dir", help="saved repository directory")
    info.add_argument(
        "--json", action="store_true", help="print the description as JSON"
    )

    topk = sub.add_parser(
        "topk", help="answer a top-K query over a saved repository"
    )
    topk.add_argument("dir", help="saved repository directory")
    topk.add_argument("--action", required=True, help="the action predicate")
    topk.add_argument(
        "--objects", nargs="*", default=[], help="object predicates"
    )
    topk.add_argument("--k", type=int, default=5)
    topk.add_argument(
        "--shards", type=int, default=None,
        help="split the store into this many in-memory shards and run "
             "the scatter-gather engine",
    )
    topk.add_argument(
        "--stats", action="store_true",
        help="print merged access counts and per-shard accounting",
    )
    topk.add_argument(
        "--json", action="store_true",
        help="print rows (and stats) as one JSON object",
    )

    sub.add_parser("list", help="list the datasets")
    return parser


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro import OnlineEngine, Query, SceneSpec, TrackSpec, synthesize_video
    from repro.eval.metrics import match_sequences

    video = synthesize_video(
        SceneSpec(
            video_id="demo",
            duration_s=240.0,
            tracks=(
                TrackSpec(label="washing dishes", kind="action",
                          occupancy=0.25, mean_duration_s=20.0),
                TrackSpec(label="faucet", kind="object",
                          correlate_with="washing dishes", correlation=0.9,
                          occupancy=0.05),
            ),
        ),
        seed=7,
    )
    query = Query(objects=["faucet"], action="washing dishes")
    truth = video.truth.query_clips(
        query.objects, query.action, video.meta.geometry
    )
    result = OnlineEngine().run(query, video)
    report = match_sequences(result.sequences, truth)
    print(f"query        : {query.describe()}")
    print(f"ground truth : {truth.as_tuples()}")
    print(f"found        : {result.sequences.as_tuples()}")
    print(f"F1           : {report.f1:.2f}")
    return 0


def _print_stats(stats: "ExecutionStats") -> None:
    print(stats.summary())


def _cmd_query(args: argparse.Namespace) -> int:
    from repro import OfflineEngine, OnlineEngine, parse, plan
    from repro.core.config import OnlineConfig, RankingConfig
    from repro.detectors.faults import fault_profile, faulty_zoo
    from repro.detectors.zoo import default_zoo
    from repro.video.datasets import DISTRACTOR_OBJECTS, build_movie, movie_by_title

    compiled = plan(parse(args.sql))
    spec = movie_by_title(args.movie)
    video = build_movie(spec, seed=args.seed, scale=args.scale)
    # An OR query fixes its own clause order: say that an order asked for
    # does not apply rather than accept the flag and ignore it.
    order_asked = compiled.mode == "online" and args.predicate_order != "user"
    order_applied = compiled.compound is None
    note = "" if order_applied or not order_asked else (
        f" (--predicate-order {args.predicate_order} not applied: "
        f"an OR query keeps its clause order)"
    )
    print(f"plan : mode={compiled.mode} "
          f"query={(compiled.query or compiled.compound).describe()}{note}")

    profile = fault_profile(args.fault_profile).with_seed(args.seed)
    zoo = faulty_zoo(default_zoo(seed=args.seed), profile)
    online_config = OnlineConfig(
        # Injected faults are per model invocation; the chunked cache
        # collapses those to one draw per (label, video), which would make
        # `--fault-profile` look like a no-op.  Serial per-clip evaluation
        # gives faults (and retries) their real surface.
        cache_detections=not profile.active,
        retry_max_attempts=args.retries,
        failure_policy=args.on_failure,
        predicate_order=args.predicate_order,
    )
    if profile.active:
        print(f"faults: profile={profile.name} retries={args.retries} "
              f"on-failure={args.on_failure}")

    if compiled.mode == "online":
        from repro import ExecutionContext

        engine = OnlineEngine(zoo=zoo, config=online_config)
        want_stats = args.stats or args.stats_json
        context = ExecutionContext() if want_stats else None
        result = compiled.execute_online(engine, video, context=context)
        print(f"sequences: {result.sequences.as_tuples()}")
        if result.degraded_sequences:
            spans = [(iv.start, iv.end) for iv in result.degraded_sequences]
            print(f"degraded : {spans}")
        if context is not None:
            selectivity = dict(result.selectivity)
            if args.stats_json:
                import json

                payload = context.snapshot().as_dict()
                if order_asked:
                    payload["predicate_order_applied"] = order_applied
                if selectivity:
                    # None = label never probed; strict JSON, never NaN.
                    payload["selectivity"] = selectivity
                print(json.dumps(payload, sort_keys=True, allow_nan=False))
            if args.stats:
                _print_stats(context.snapshot())
                if selectivity:
                    rendered = ", ".join(
                        f"{label}={rate:.3f}" if rate is not None
                        else f"{label}=?"
                        for label, rate in sorted(selectivity.items())
                    )
                    print(f"  selectivity          : {rendered}")
        return 0

    engine = OfflineEngine(zoo=zoo, config=RankingConfig(online=online_config))
    object_labels = [*spec.objects, "person", *DISTRACTOR_OBJECTS]
    action_labels = [spec.action]
    if profile.active:
        # Ingestion gives up per video when retries run out; capture the
        # outcome and re-run failed videos instead of crashing the query.
        # One ingest is thousands of model invocations, so a shallow
        # budget leaves a give-up somewhere almost surely — escalate the
        # per-invocation budget each round.
        from dataclasses import replace

        for round_no in range(1, 6):
            engine = OfflineEngine(
                zoo=zoo,
                config=RankingConfig(
                    online=replace(
                        online_config,
                        retry_max_attempts=args.retries * round_no,
                    )
                ),
            )
            outcomes = engine.ingest_many(
                [video], object_labels, action_labels, on_error="capture"
            )
            if outcomes[0].ok:
                break
        else:
            print(f"ingestion failed after {round_no} rounds: "
                  f"{outcomes[0].error}")
            return 1
        print(f"ingest : ok after {round_no} round(s) "
              f"(retries={zoo.cost_meter.retries()}, "
              f"give-ups={zoo.cost_meter.giveups()})")
    else:
        engine.ingest(
            video,
            object_labels=object_labels,
            action_labels=action_labels,
        )
    result = compiled.execute_offline(engine)
    for video_id, start, end, score in engine.localized(result):
        print(f"{video_id}: clips [{start}, {end}]  score={score:.1f}")
    stats = result.stats
    print(f"cost: {stats.random_accesses} random + "
          f"{stats.sequential_accesses} sequential accesses")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Streaming-service demo: attach movie streams, register each
    movie's canonical query live, push results as sequences close, and
    optionally cancel mid-stream or migrate the whole service through a
    snapshot bundle."""
    import asyncio
    import json

    from repro import Query
    from repro.detectors.zoo import default_zoo
    from repro.service import (
        AdmissionController,
        QueryService,
        ServiceClient,
        TenantQuota,
    )
    from repro.service.service import EVENT_FINAL
    from repro.video.datasets import build_movie, movie_by_title

    admission = AdmissionController(
        TenantQuota(
            max_concurrent=args.max_concurrent,
            model_unit_budget=args.unit_budget,
        )
    )
    service = QueryService(
        default_zoo(seed=args.seed),
        admission=admission,
        clip_batch=args.clip_batch,
    )
    videos = {}
    registered: list[tuple[str, str]] = []
    client = ServiceClient(service, tenant="demo")
    for title in args.movies:
        spec = movie_by_title(title)
        video = build_movie(spec, seed=args.seed, scale=args.scale)
        stream = spec.title.lower().replace(" ", "-")
        videos[stream] = video
        service.add_stream(stream, video)
        name = client.register(
            stream, Query(objects=list(spec.objects), action=spec.action)
        )
        registered.append((stream, name))
        print(f"attach : {stream} ({video.meta.n_clips} clips) "
              f"query {name}: {spec.action} [{', '.join(spec.objects)}]")

    async def drain(stream: str, name: str) -> None:
        queue = client.subscribe(stream, name)
        while True:
            event = await queue.get()
            if event.kind == EVENT_FINAL:
                spans = event.result.sequences.as_tuples()
                print(f"final  : {stream}/{name} {spans}")
                return
            iv = event.interval
            print(f"push   : {stream}/{name} clips [{iv.start}, {iv.end}]")

    async def main() -> QueryService:
        drains = [
            asyncio.create_task(drain(stream, name))
            for stream, name in registered
        ]
        svc = service
        first_stream, first_name = registered[0]
        cancel_at, snapshot_at = args.cancel_after, args.snapshot_at
        # One loop serves both flags, each checked against the first
        # stream's position before every round of steps.  A migration
        # leaves an ended stream behind.
        while True:
            attached = first_stream in svc.streams()
            position = svc.position(first_stream) if attached else 0
            ended = not attached or svc.done(first_stream)
            if cancel_at is not None and not ended and position >= cancel_at:
                client.cancel(first_stream, first_name)
                cancel_at = None
                print(f"cancel : {first_stream}/{first_name} "
                      f"at clip {position}")
            if snapshot_at is not None and (ended or position >= snapshot_at):
                snapshot_at = None
                bundle = svc.snapshot().to_dict()
                print(f"migrate: captured v{bundle['version']} bundle "
                      f"({len(bundle['streams'])} streams) — resuming in a "
                      f"fresh service")
                svc = QueryService.resume(
                    json.loads(json.dumps(bundle)),
                    videos,
                    default_zoo(seed=args.seed),
                    admission=AdmissionController(
                        TenantQuota(
                            max_concurrent=args.max_concurrent,
                            model_unit_budget=args.unit_budget,
                        )
                    ),
                    clip_batch=args.clip_batch,
                )
                # Re-attach the drains' subscriptions to the new process.
                for task in drains:
                    task.cancel()
                client.rebind(svc)
                drains = [
                    asyncio.create_task(drain(stream, name))
                    for stream, name in registered
                    if stream in svc.streams() and name in svc.live(stream)
                ]
            if all(svc.done(s) for s in svc.streams()):
                break
            for stream in svc.streams():
                svc.step(stream)
                await asyncio.sleep(0)
        await asyncio.gather(*drains, return_exceptions=True)
        return svc

    final_service = asyncio.run(main())
    if args.stats_json:
        print(json.dumps(final_service.health(), sort_keys=True))
    return 0


def _cmd_repo(args: argparse.Namespace) -> int:
    import json

    from repro.storage.sharded import describe

    info = describe(args.dir)  # ``info`` is the one repo command
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        for key, value in info.items():
            print(f"{key}: {value}")
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    import json

    from repro.core.config import RankingConfig
    from repro.core.distributed import ShardReport, sharded_top_k
    from repro.core.engine import OfflineEngine
    from repro.core.query import Query
    from repro.storage.repository import VideoRepository
    from repro.storage.sharded import ShardedRepository

    query = Query(objects=list(args.objects), action=args.action)
    # Exact scores on the single path too, matching the sharded gather's
    # contract — the printed score is the sequence's true score either way,
    # so the same corpus reports the same rows sharded or not.
    config = RankingConfig(require_exact_scores=True)
    repository = VideoRepository.load(args.dir)
    extra: dict[str, object] = {"n_shards": None}
    reports: Sequence[ShardReport] = ()
    if args.shards is None:
        engine = OfflineEngine(repository=repository, config=config)
        single = engine.top_k(query, args.k)
        rows, stats = engine.localized(single), single.stats
    else:
        sharded = ShardedRepository.split(repository, args.shards)
        result = sharded_top_k(sharded, query, args.k, config=config)
        rows, stats, reports = list(result.rows), result.stats, result.per_shard
        extra = {"n_shards": len(reports), "rounds": result.rounds}
    per_shard = [
        {
            "shard": report.shard,
            "candidates": len(report.candidates),
            "iterations": report.iterations,
            "rounds": report.rounds,
            "sorted_accesses": report.stats.sorted_accesses,
            "reverse_accesses": report.stats.reverse_accesses,
            "random_accesses": report.stats.random_accesses,
            "wall_s": round(report.wall_s, 6),
        }
        for report in reports
    ]
    stats_payload = {
        "sorted_accesses": stats.sorted_accesses,
        "reverse_accesses": stats.reverse_accesses,
        "random_accesses": stats.random_accesses,
        **extra,
        "per_shard": per_shard,
    }
    if args.json:
        payload = {
            "query": {"objects": list(args.objects), "action": args.action},
            "k": args.k,
            "rows": [list(row) for row in rows],
        }
        if args.stats:
            payload["stats"] = stats_payload
        print(json.dumps(payload, sort_keys=True))
        return 0
    for video_id, start, end, score in rows:
        print(f"{video_id}: clips [{start}, {end}]  score={score:.3f}")
    if args.stats:
        print(
            f"cost: {stats.random_accesses} random + "
            f"{stats.sorted_accesses + stats.reverse_accesses} sequential "
            f"accesses"
        )
        for entry in per_shard:
            print(
                f"  shard {entry['shard']:3d}: "
                f"{entry['iterations']:6d} pairs / {entry['rounds']:3d} "
                f"rounds, {entry['sorted_accesses'] + entry['reverse_accesses']:7d} "
                f"sequential + {entry['random_accesses']:6d} random, "
                f"{entry['wall_s'] * 1e3:.1f} ms"
            )
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.video.datasets import MOVIES, YOUTUBE_QUERY_SETS

    print("YouTube query sets (Table 1):")
    for spec in YOUTUBE_QUERY_SETS:
        objects = ", ".join(spec.objects)
        print(f"  {spec.qid}: {spec.action} [{objects}] ({spec.minutes} min)")
    print("\nmovies (Table 2):")
    for movie in MOVIES:
        objects = ", ".join(movie.objects)
        print(f"  {movie.title}: {movie.action} [{objects}] "
              f"({movie.minutes} min)")
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "query": _cmd_query,
    "repo": _cmd_repo,
    "topk": _cmd_topk,
    "serve": _cmd_serve,
    "list": _cmd_list,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        # Bad input (malformed SQL, unknown movie, corrupt repository...):
        # one line, not a traceback.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — normal exit.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except KeyboardInterrupt:
        # Ctrl-C: one line and the shell's 128 + SIGINT, not a traceback.
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - module CLI shim
    raise SystemExit(main())
