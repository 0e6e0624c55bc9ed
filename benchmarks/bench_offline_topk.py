#!/usr/bin/env python
"""Offline top-K pipeline benchmark: vectorized RVAQ vs the reference.

Builds synthetic repositories directly from hand-rolled
:class:`VideoIngest` objects (seeded rng, no model zoo — this measures the
ranking path, not simulated inference), then runs the pre-change reference
implementation (``tests/reference/rvaq.py``) and the vectorized
:class:`repro.core.rvaq.RVAQ` over the same queries.

For every configuration the two runs are asserted to produce **identical
ranked tuples and identical metered access counts** — the speedup is
measured on provably equivalent work.

A second, repository-scale leg exercises the sharded scatter-gather
engine (:func:`repro.core.distributed.sharded_top_k`): the corpus is
split in memory across 4 shards and queried with the serial round loop
— after asserting the distributed rows are *identical* to the
single-repository exact-score run.  The walls are recorded, not gated:
the single engine's per-pair work no longer grows with ``|P_q|`` fast
enough for a 4-way partition to beat it (it did, 1.9x, while every pair
refreshed every sequence).  A third stat times repository *open* at two
corpus sizes a factor 10 apart to demonstrate the memmap layout opens in
O(1) clip count.

The work is pinned as well as compared: before the file is rewritten,
pairs and the three access counts of every configuration (and the sharded
leg's pairs and rounds) are asserted equal to the committed
``BENCH_offline_topk.json`` wherever it holds the same configuration, so a
regenerated file can only ever move the clocks.  The largest configuration
also gets a per-stage split — repository open, the Eq. 12 sweep, the
repository table merges, TBClip, bound maintenance — so that a change to
one layer shows as a committed before/after of that layer.

Writes ``BENCH_offline_topk.json``::

    {"configs": [{"n_sequences": ..., "k": ...,
                  "reference": {"wall_s": ..., "pairs": ..., ...},
                  "vectorized": {...}, "speedup": ...}, ...],
     "stages": {"open_s": ..., "pq_s": ..., "tables_s": ...,
                "tbclip_s": ..., "bounds_s": ...},
     "sharded": [{"single_wall_s": ..., "serial_wall_s": ...,
                  "speedup_serial": ..., "rounds": ..., ...}, ...],
     "open_times": [{"total_clips": ..., "format3_open_s": ...}, ...]}

``--smoke`` shrinks the sweep to a seconds-long CI sanity run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # repro, and tests.reference

from repro.core.config import RankingConfig  # noqa: E402
from repro.core.distributed import sharded_top_k  # noqa: E402
from repro.core.query import Query  # noqa: E402
from repro.core.rvaq import RVAQ  # noqa: E402
from repro.core.scoring import PaperScoring  # noqa: E402
from repro.storage.access import AccessStats  # noqa: E402
from repro.storage.repository import VideoRepository  # noqa: E402
from repro.storage.sharded import ShardedRepository  # noqa: E402
from repro.storage.synth import synthetic_repository  # noqa: E402
from tests.reference.rvaq import ReferenceRVAQ  # noqa: E402

QUERY = Query(objects=["car"], action="jumping")

#: The rng-stream-compatible generator this benchmark has always used,
#: now shared with the test suite via :mod:`repro.storage.synth`.
build_repository = synthetic_repository


def timed(fn, repeats: int):
    """(best wall seconds, last result) over ``repeats`` runs."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_config(
    n_videos: int, n_clips: int, k: int, seed: int, repeats: int
) -> dict:
    repo = build_repository(n_videos, n_clips, seed)
    scoring = PaperScoring()

    ref_s, ref = timed(
        lambda: ReferenceRVAQ(repo, scoring, RankingConfig()).top_k(QUERY, k),
        repeats,
    )
    vec_s, vec = timed(
        lambda: RVAQ(repo, scoring, RankingConfig()).top_k(QUERY, k),
        repeats,
    )

    def ranked(res):
        return [
            (r.interval.start, r.interval.end, r.lower_bound, r.upper_bound)
            for r in res.ranked
        ]

    def stats(res):
        return (
            res.stats.sorted_accesses,
            res.stats.reverse_accesses,
            res.stats.random_accesses,
        )

    # The headline guarantee: vectorized == reference, bit for bit.
    assert ranked(vec) == ranked(ref), "ranked output diverged from reference"
    assert stats(vec) == stats(ref), "access accounting diverged"
    assert vec.iterations == ref.iterations, "iteration count diverged"

    def leg(wall_s, res):
        return {
            "wall_s": round(wall_s, 6),
            "pairs": res.iterations,
            "sorted_accesses": res.stats.sorted_accesses,
            "reverse_accesses": res.stats.reverse_accesses,
            "random_accesses": res.stats.random_accesses,
        }

    return {
        "n_videos": n_videos,
        "n_clips_per_video": n_clips,
        "n_sequences": len(vec.p_q),
        "k": k,
        "seed": seed,
        "reference": leg(ref_s, ref),
        "vectorized": leg(vec_s, vec),
        "speedup": round(ref_s / vec_s, 3) if vec_s > 0 else None,
    }


def run_stages(n_videos: int, n_clips: int, k: int, seed: int, repeats: int) -> dict:
    """Where one cold statement spends its time, layer by layer: open the
    saved repository, intersect ``P_q``, merge the query's repository
    tables, then Algorithm 4 with the clock split between TBClip
    (``next_pair``) and bound maintenance (``_consume_pair``).  Best of
    ``repeats`` per stage; the rows are those ``run_config`` asserted."""
    import tempfile

    best: dict[str, float] = {}

    def lap(name: str, t0: float) -> float:
        t1 = time.perf_counter()
        best[name] = min(best.get(name, float("inf")), t1 - t0)
        return t1

    with tempfile.TemporaryDirectory() as tmp:
        build_repository(n_videos, n_clips, seed).save(Path(tmp) / "repo")
        for _ in range(repeats):
            clock = {"tbclip_s": 0.0, "bounds_s": 0.0}
            t = time.perf_counter()
            repo = VideoRepository.load(Path(tmp) / "repo")
            t = lap("open_s", t)
            engine = RVAQ(repo, PaperScoring(), RankingConfig())
            p_q = engine.result_sequences(QUERY)
            t = lap("pq_s", t)
            for label in (QUERY.action, *QUERY.objects):
                repo.table(label)
            t = lap("tables_s", t)
            bounds, iterator = engine._open(QUERY, p_q, k, AccessStats())
            pairs = 0
            while True:
                t0 = time.perf_counter()
                pair = iterator.next_pair()
                t1 = time.perf_counter()
                pairs += 1
                done = iterator.drained(pair) or engine._consume_pair(bounds, pair, k)
                clock["tbclip_s"] += t1 - t0
                clock["bounds_s"] += time.perf_counter() - t1
                if done:
                    break
            for name, seconds in clock.items():
                best[name] = min(best.get(name, float("inf")), seconds)
    return {
        "n_videos": n_videos, "n_clips_per_video": n_clips, "k": k,
        "seed": seed, "n_sequences": len(p_q), "pairs": pairs,
        **{name: round(seconds, 6) for name, seconds in best.items()},
    }


def assert_same_work(payload: dict, committed: Path) -> None:
    """Every configuration the committed file also holds did exactly the
    committed work: pairs and access counts, per leg and per shard."""
    if not committed.is_file():
        return
    record = json.loads(committed.read_text())

    def keyed(rows):
        return {
            (r["n_videos"], r["n_clips_per_video"], r["k"], r["seed"]): r
            for r in rows
        }

    counts = ("pairs", "sorted_accesses", "reverse_accesses", "random_accesses")
    was = keyed(record.get("configs", []))
    for key, row in keyed(payload["configs"]).items():
        for leg in ("reference", "vectorized"):
            if key in was:
                got = [row[leg][name] for name in counts]
                want = [was[key][leg][name] for name in counts]
                assert got == want, f"{key} {leg}: {got} != committed {want}"
    was = keyed(record.get("sharded", []))
    for key, row in keyed(payload["sharded"]).items():
        for name in ("rounds", "pairs_total", "per_shard_pairs", *counts[1:]):
            if key in was and name in was[key]:
                assert row[name] == was[key][name], (
                    f"sharded {key} {name}: {row[name]} != committed "
                    f"{was[key][name]}"
                )


FULL_SWEEP = [
    # (n_videos, n_clips, k) — n_sequences grows with videos * clips
    (4, 120, 10),
    (8, 240, 10),
    (10, 400, 10),
    (10, 400, 50),
    (16, 500, 10),   # repository scale: >= 200 sequences at K=10
    (20, 640, 10),
]

SMOKE_SWEEP = [
    (2, 60, 5),
    (4, 120, 10),
]

#: Sharded scatter-gather legs: (n_videos, n_clips, k, round_budget).
#: The full config is *repository scale* — ~95k candidate sequences, a
#: multi-second single-node run.  A budget of 512 pairs per round keeps
#: coordinator floor feedback effective (several rounds) while amortising
#: the per-round barrier.
SHARDED_FULL = (160, 3000, 10, 512)
SHARDED_SMOKE = (8, 200, 5, 64)

#: Corpus sizes (n_videos, n_clips) for the repository-open timing stat.
#: Clip count grows 10x between them; the open time must not.
OPEN_SIZES = [(8, 2000), (8, 20000)]

#: Sequence spans per label in the open-stat corpus.  Held *fixed* while
#: clip count grows so the stat isolates what the claim is about: no
#: score column is materialised at open.  Sequence metadata is O(spans).
OPEN_SPANS = 16


def open_stat_repository(
    n_videos: int, n_clips: int, seed: int
) -> VideoRepository:
    """A corpus for the open-time stat: full-size score columns, but a
    fixed number of sequence spans regardless of clip count."""
    import numpy as np

    from repro.storage.ingest import VideoIngest
    from repro.storage.table import ClipScoreTable
    from repro.utils.intervals import IntervalSet

    rng = np.random.default_rng(seed)
    span_len = max(1, n_clips // (2 * OPEN_SPANS))
    spans = IntervalSet(
        [
            (start, min(n_clips - 1, start + span_len - 1))
            for i in range(OPEN_SPANS)
            for start in [i * (n_clips // OPEN_SPANS)]
        ]
    )
    repo = VideoRepository()
    for v in range(n_videos):
        tables = {
            label: ClipScoreTable(
                label, list(enumerate(np.round(rng.random(n_clips), 3)))
            )
            for label in ("car", "jumping")
        }
        repo.add(
            VideoIngest(
                video_id=f"v{v}",
                n_clips=n_clips,
                object_tables={"car": tables["car"]},
                action_tables={"jumping": tables["jumping"]},
                object_sequences={"car": spans},
                action_sequences={"jumping": spans},
            )
        )
    return repo


def run_sharded(
    n_videos: int,
    n_clips: int,
    k: int,
    seed: int,
    round_budget: int,
    n_shards: int = 4,
) -> dict:
    """Sharded scatter-gather vs the single-repository exact-score run.

    Result identity is asserted before any timing is reported: the
    distributed rows must equal the single-node exact-score RVAQ's
    localized rows, ties and order included.
    """
    repo = build_repository(n_videos, n_clips, seed)
    scoring = PaperScoring()
    exact = RankingConfig(require_exact_scores=True)

    # Best-of-2 on both timed legs, matching `timed`'s discipline
    # elsewhere: steady-state walls, not scheduler noise.
    single_s, single = timed(
        lambda: RVAQ(repo, scoring, exact).top_k(QUERY, k), 2
    )
    oracle = []
    for r in single.ranked:
        video_id, start = repo.to_local(r.interval.start)
        _, end = repo.to_local(r.interval.end)
        oracle.append((video_id, start, end, r.score))

    sharded = ShardedRepository.split(repo, n_shards)
    serial_s, serial = timed(
        lambda: sharded_top_k(sharded, QUERY, k, round_budget=round_budget), 2
    )

    # The headline guarantee, checked before any number is written out.
    assert list(serial.rows) == oracle, "sharded rows diverged"

    row = {
        "n_videos": n_videos,
        "n_clips_per_video": n_clips,
        "k": k,
        "seed": seed,
        "n_shards": n_shards,
        "round_budget": round_budget,
        "rounds": serial.rounds,
        "single_wall_s": round(single_s, 6),
        "serial_wall_s": round(serial_s, 6),
        "speedup_serial": round(single_s / serial_s, 3),
        "pairs_total": serial.iterations,
        "per_shard_pairs": [r.iterations for r in serial.per_shard],
        "sorted_accesses": serial.stats.sorted_accesses,
        "reverse_accesses": serial.stats.reverse_accesses,
        "random_accesses": serial.stats.random_accesses,
    }
    print(
        f"sharded videos={n_videos:3d} clips={n_clips:4d} shards={n_shards} "
        f"single={single_s:8.2f}s  serial={serial_s:8.2f}s  "
        f"speedup={row['speedup_serial']:.2f}x"
    )
    return row


def run_open_times(seed: int) -> list[dict]:
    """Repository open wall time at two corpus sizes.

    The memmap layout adopts columns without materialising scores, so its
    open time stays flat while the clip count grows 10x — the O(1)-open
    bench stat.  Span structure is held fixed across the sizes (see
    :data:`OPEN_SPANS`) so the comparison isolates column scaling.
    """
    import tempfile

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n_videos, n_clips in OPEN_SIZES:
            repo = open_stat_repository(n_videos, n_clips, seed)
            stamp = f"{n_videos}x{n_clips}"
            repo.save(Path(tmp) / f"f3-{stamp}")
            f3_s, _ = timed(
                lambda: VideoRepository.load(Path(tmp) / f"f3-{stamp}"), 3
            )
            rows.append(
                {
                    "n_videos": n_videos,
                    "n_clips_per_video": n_clips,
                    "total_clips": n_videos * n_clips,
                    "format3_open_s": round(f3_s, 6),
                }
            )
            print(
                f"open clips={n_videos * n_clips:6d}  "
                f"format3={f3_s * 1e3:8.2f}ms"
            )
    return rows


def run_chaos(profile_name: str, seed: int, out: Path) -> int:
    """Fault-injection smoke leg for the offline pipeline: ingest a small
    video batch through a faulty zoo (capturing per-video failures and
    retrying them), save/load the repository atomically, and answer a
    top-K query off the salvaged metadata — zero crashes allowed."""
    import tempfile

    from repro.core.config import OnlineConfig
    from repro.detectors.faults import fault_profile, faulty_zoo
    from repro.detectors.zoo import default_zoo
    from repro.storage.ingest import ingest_many
    from repro.video.synthesis import SceneSpec, TrackSpec, synthesize_video

    profile = fault_profile(profile_name).with_seed(seed)
    zoo = faulty_zoo(default_zoo(seed=seed), profile)
    config = OnlineConfig(
        cache_detections=False,
        retry_max_attempts=4,
        failure_policy="hold_last_estimate",
    )
    videos = [
        synthesize_video(
            SceneSpec(
                video_id=f"chaos-{i}",
                duration_s=90.0,
                tracks=(
                    TrackSpec(label="jumping", kind="action",
                              occupancy=0.2, mean_duration_s=12.0),
                    TrackSpec(label="car", kind="object", occupancy=0.15,
                              correlate_with="jumping", correlation=0.8),
                ),
            ),
            seed=seed + i,
        )
        for i in range(3)
    ]
    t0 = time.perf_counter()
    outcomes = ingest_many(
        videos, zoo, ["car"], ["jumping"], PaperScoring(), config,
        on_error="capture",
    )
    rounds = 0
    while any(not o.ok for o in outcomes) and rounds < 5:
        failed = [o.video for o in outcomes if not o.ok]
        redone = ingest_many(
            failed, zoo, ["car"], ["jumping"], PaperScoring(), config,
            on_error="capture",
        )
        by_id = {o.video_id: o for o in redone}
        outcomes = [by_id.get(o.video_id, o) for o in outcomes]
        rounds += 1
    repo = VideoRepository()
    for outcome in outcomes:
        if outcome.ok:
            repo.add(outcome.ingest)
    assert repo.n_videos > 0, "every video failed ingestion"
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "repo"
        repo.save(target)
        repo = VideoRepository.load(target)
    result = RVAQ(repo, PaperScoring(), RankingConfig()).top_k(QUERY, 5)
    wall = time.perf_counter() - t0
    failed = sum(1 for o in outcomes if not o.ok)
    print(
        f"chaos [{profile.name}]: videos={len(videos)} "
        f"ingested={repo.n_videos} still_failed={failed} "
        f"retry_rounds={rounds} retries={zoo.cost_meter.retries()} "
        f"giveups={zoo.cost_meter.giveups()} ranked={len(result.ranked)} "
        f"wall={wall:.2f}s"
    )
    payload = {
        "benchmark": "offline_topk",
        "mode": "chaos",
        "fault_profile": profile.name,
        "n_videos": len(videos),
        "ingested": repo.n_videos,
        "still_failed": failed,
        "retry_rounds": rounds,
        "model_retries": zoo.cost_meter.retries(),
        "model_giveups": zoo.cost_meter.giveups(),
        "ranked": len(result.ranked),
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
    parser.add_argument("--seed", type=int, default=7)
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
        / "BENCH_offline_topk.json",
    )
    args = parser.parse_args(argv)

    if args.fault_profile != "none":
        return run_chaos(args.fault_profile, args.seed, args.out)

    sweep = SMOKE_SWEEP if args.smoke else FULL_SWEEP
    repeats = args.repeats or (1 if args.smoke else 3)

    configs = []
    for n_videos, n_clips, k in sweep:
        row = run_config(n_videos, n_clips, k, args.seed, repeats)
        configs.append(row)
        print(
            f"videos={n_videos:3d} clips={n_clips:4d} "
            f"seqs={row['n_sequences']:5d} k={k:3d}  "
            f"ref={row['reference']['wall_s']*1e3:9.2f}ms  "
            f"vec={row['vectorized']['wall_s']*1e3:9.2f}ms  "
            f"speedup={row['speedup']:6.2f}x"
        )

    stages = run_stages(*max(sweep, key=lambda c: c[0] * c[1]), args.seed, repeats)
    print("stages " + "  ".join(
        f"{name}={seconds * 1e3:.2f}ms"
        for name, seconds in stages.items() if name.endswith("_s")
    ))

    sharded_cfg = SHARDED_SMOKE if args.smoke else SHARDED_FULL
    n_videos, n_clips, k, round_budget = sharded_cfg
    sharded_rows = [
        run_sharded(n_videos, n_clips, k, args.seed, round_budget)
    ]
    open_rows = run_open_times(args.seed)

    payload = {
        "benchmark": "offline_topk",
        "query": {"objects": QUERY.objects, "action": QUERY.action},
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "configs": configs,
        "stages": stages,
        "sharded": sharded_rows,
        "open_times": open_rows,
    }
    assert_same_work(payload, ROOT / "BENCH_offline_topk.json")
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
