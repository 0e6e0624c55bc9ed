#!/usr/bin/env python3
"""svqbench — one benchmark for the online fleet, the service and the
offline top-K path of ``repro``, with per-layer attribution.

One workload, as the benchmark driver runs it (last stdout line is the
result object BENCHMARK.json describes)::

    python3 benchmarks/svqbench/run.py --workload fleet_static \\
        --seed 0 --seconds 10 --trace 0

All six workloads, each in its own fresh child process, one at a time::

    python3 benchmarks/svqbench/run.py [--trace 1] [--runs 3] [--json A.json]

Maintenance::

    python3 benchmarks/svqbench/run.py --selfcheck
    python3 benchmarks/svqbench/run.py --compare A.json B.json

See README.md beside this file for the metrics, the workloads and the
timing method.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    # Nothing to measure: the benchmark runs the program from source.
    sys.exit(f"svqbench: no program under test at {SRC / 'repro'}")
sys.path[:0] = [str(SRC), str(HERE)]

import harness  # noqa: E402
import inputs  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_ROUNDS = 3
#: Repetitions whose spans are written to the trace file.
TRACE_FILE_OPS = 2
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@functools.lru_cache(maxsize=None)
def spec() -> dict[str, Any]:
    """BENCHMARK.json — the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_digests() -> dict[str, str]:
    path = HERE / "expected.json"
    return json.loads(path.read_text()) if path.is_file() else {}


@dataclasses.dataclass
class Run:
    """One workload run: the result line plus what ``--selfcheck`` pokes."""

    line: dict[str, Any] = dataclasses.field(default_factory=dict)
    workload: Any = None
    reps: Any = None
    digest: str = ""


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str,
    out_dir: Path,
    min_reps: int = 5,
) -> Run:
    """Set up, verify, measure and report one workload in this process."""
    run = Run()
    out_dir.mkdir(parents=True, exist_ok=True)
    layers: dict[str, float | None] = {}
    if trace:
        layers.update(workloads.scanstats_probe())
    tracer = harness.Tracer(name, enabled=trace)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"work-{name}-") as work:
        w = workloads.WORKLOADS[name](size, tracer, Path(work))
        run.workload = w
        setup_walls = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            with tracer.span("harness.setup"):
                w.setup(seed)
            setup_walls.append(time.perf_counter() - t0)

        reps, plain = harness.measure(w.body, w.check, seconds, min_reps, tracer)
        reps.attempted += plain.attempted
        reps.failed += plain.failed
        run.reps = reps

        run.digest = verify.digest(w.canonical(reps.last))
        if seed == inputs.DEFAULT_SEED and size == "full":
            if run.digest != expected_digests().get(name):
                print(f"  DIGEST MISMATCH: rows hash to {run.digest}")
                reps.failed = reps.attempted

        if trace:
            ops = range(len(reps.cpu))
            layers.update(w.layers(reps.last, ops, reps))
            synth = tracer.each("video.synth")
            if synth:
                layers["video.synth_s"] = sum(synth) / SETUP_ROUNDS
            layers.update({
                "harness.cpu_wall_ratio": reps.cpu_wall_ratio,
                "harness.trace_overhead": reps.run_cpu_s / plain.run_cpu_s,
                "harness.reps": len(reps.cpu),
                "harness.wall_p25_s": harness.quantile(reps.wall, 0.25),
                "harness.wall_p50_s": statistics.median(reps.wall),
                "harness.op_samples": len(reps.all_ops),
                "harness.op_tail_ms":
                    harness.tail_quantile(reps.all_ops)[0] / 1e6,
            })
            trace_file = out_dir / f"trace-{name}.json"
            trace_file.write_text(json.dumps(tracer.to_json(TRACE_FILE_OPS)))
            values = layers
            section = "per_layer"
        else:
            values = {
                "setup_s": statistics.median(setup_walls),
                "run_cpu_s": reps.run_cpu_s,
                "query_clips_per_s": w.work_units() / reps.run_cpu_s,
                "op_p50_ms": reps.op_p50_ms,
                "paper_cost_per_op": w.cost(reps.last),
                "result_f1": w.f1(reps.last),
                "peak_rss_mb": harness.peak_rss_mb(),
            }
            section = "end_to_end"

    declared = {m["name"]: m["unit"] for m in spec()[section]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise SystemExit(f"svqbench: metrics not in BENCHMARK.json: {unknown}")
    # The result line holds numbers only, so a metric with nothing behind
    # it goes out as 0; the report says which kind of nothing it was.
    absent = {
        metric: "the program no longer exposes it" if metric in values
        else "not on this workload's path"
        for metric in declared if values.get(metric) is None
    }
    metrics = {
        metric: {"value": 0 if metric in absent else values[metric], "unit": unit}
        for metric, unit in declared.items()
    }
    run.line = {
        "correct": reps.failed == 0,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": metrics,
    }
    _print_report(name, seed, size, reps, metrics, absent, setup_walls, trace)
    return run


def _print_report(
    name: str,
    seed: int,
    size: str,
    reps: harness.Reps,
    metrics: dict[str, dict[str, Any]],
    absent: dict[str, str],
    setup_walls: list[float],
    trace: bool,
) -> None:
    ratio = reps.cpu_wall_ratio
    disturbed = "  DISTURBED" if ratio < harness.DISTURBED_RATIO else ""
    ops = reps.all_ops
    tail, tail_name = harness.tail_quantile(ops)
    print(
        f"svqbench {name}  seed={seed} size={size} trace={int(trace)}  "
        f"reps={len(reps.cpu)}  ops {reps.attempted - reps.failed}/"
        f"{reps.attempted} ok  ops_failed_share="
        f"{reps.failed / reps.attempted:.4f}"
    )
    q = harness.quantile
    print(
        f"  rep cpu  s: min {min(reps.cpu):.4f}  p25 {q(reps.cpu, .25):.4f}"
        f"  p50 {q(reps.cpu, .5):.4f}"
        f"  p75 {q(reps.cpu, .75):.4f}   rep wall s: p25 {q(reps.wall, .25):.4f}"
        f"  p50 {q(reps.wall, .5):.4f}  p75 {q(reps.wall, .75):.4f}"
        f"   harness.cpu_wall_ratio {ratio:.3f}{disturbed}"
    )
    print(
        f"  op cpu  ms: p50 {statistics.median(ops) / 1e6:.4f}"
        f"  {tail_name} {tail / 1e6:.4f}  ({len(ops)} samples)"
        f"   set-up wall s: "
        + " ".join(f"{s:.3f}" for s in setup_walls)
    )
    for metric, entry in metrics.items():
        if metric in absent:
            print(f"  {metric:32s} {'null':>16s} ({absent[metric]})")
        else:
            print(f"  {metric:32s} {entry['value']:>16.6g} {entry['unit']}")


# -- all six, each in its own process ---------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    names = [w["name"] for w in spec()["workloads"]]
    results: dict[str, Any] = {name: {"runs": []} for name in names}
    failed = False
    for round_no in range(args.runs):
        for name in names:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed + round_no if args.vary_seed else args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(args.out),
            ]
            done = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=900
            )
            lines = done.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if done.returncode != 0:
                print(f"svqbench: {name} exited with {done.returncode}")
                failed = True
                continue
            line = json.loads(lines[-1])
            failed |= not line["correct"]
            results[name]["runs"].append({
                "correct": line["correct"],
                "attempted": line["attempted"],
                "failed": line["failed"],
                **{k: v["value"] for k, v in line["metrics"].items()},
            })
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
        print(f"wrote {args.json}")
    return 1 if failed else 0


# -- compare ---------------------------------------------------------------------------


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median (needs two
    runs; one run has no spread to speak of)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = (harness.quantile(values, q) for q in (0.25, 0.5, 0.75))
    return abs(q3 - q1) / abs(q2) if q2 else 0.0


def compare(path_a: str, path_b: str) -> int:
    """B against its base A, per workload × end-to-end metric."""
    a_all = json.loads(Path(path_a).read_text())
    b_all = json.loads(Path(path_b).read_text())
    worse = 0
    print(f"{'workload':15s} {'metric':18s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s} {'spread':>7s}  verdict")
    for name in a_all:
        for metric in spec()["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [run[key] for run in a_all[name]["runs"]]
            b = [run[key] for run in b_all.get(name, {"runs": []})["runs"]]
            if not a or not b:
                print(f"{name:15s} {key:18s} missing on one side  unresolved")
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            lower = metric["better"] == "lower"
            loss = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
            noise = max(spread(a), spread(b))
            all_better = (
                max(b) < min(a) if lower else min(b) > max(a)
            )
            if noise > bound and not all_better:
                verdict = "unresolved"
            elif loss > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{name:15s} {key:18s} {med_a:12.6g} {med_b:12.6g} "
                  f"{med_b / med_a:7.3f} {bound:6.2f} {noise:7.3f}  {verdict}")
    return 1 if worse else 0


# -- selfcheck -------------------------------------------------------------------------


def selfcheck(out_dir: Path) -> int:
    """Every workload at toy size, both modes; the output schema; and every
    verifier shown to fail on corrupted rows."""
    t0 = time.perf_counter()
    declared = spec()
    names = [w["name"] for w in declared["workloads"]]
    assert names == list(workloads.WORKLOADS), names
    for section in ("end_to_end", "per_layer"):
        for metric in declared[section]:
            assert METRIC_NAME.match(metric["name"]), metric["name"]
    for name in names:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            run = run_workload(
                name, inputs.DEFAULT_SEED, 0.2, trace, "toy", out_dir, min_reps=2
            )
            line = json.loads(json.dumps(run.line))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0, line
            assert isinstance(line["attempted"], int) and line["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in declared[section]}
            assert set(line["metrics"]) == set(want), name
            for metric, entry in line["metrics"].items():
                assert set(entry) == {"value", "unit"}, metric
                assert entry["unit"] == want[metric], metric
                assert isinstance(entry["value"], (int, float)), metric
                if section == "end_to_end":
                    assert entry["value"] > 0, (name, metric)
            if trace:
                assert (out_dir / f"trace-{name}.json").is_file()
            else:
                _check_can_fail(run)
    _verifiers_can_fail()
    print(f"selfcheck ok in {time.perf_counter() - t0:.1f} s")
    return 0


def _check_can_fail(run: Run) -> None:
    """A workload's ``check`` must reject rows that differ from the
    oracle's, and everything once the oracle itself said no."""
    w, out = run.workload, run.reps.last
    attempted, failed = w.check(out)
    assert attempted > 0 and failed == 0
    good = w.expected
    try:
        w.expected = _corrupt(copy.deepcopy(good))
        assert w.check(out)[1] > 0, f"{w.name}: corrupted rows passed"
    finally:
        w.expected = good
    w.oracle_ok = False
    assert w.check(out) == (attempted, attempted)
    w.oracle_ok = True


def _corrupt(rows: Any) -> Any:
    """Move the end clip of the first row found — ``(start, end)`` online,
    ``(video, start, end, score)`` offline; add a row where there is none."""
    items = list(rows.values()) if isinstance(rows, dict) else rows
    for entry in items:
        if entry:
            row = list(entry[0])
            row[1 if len(row) == 2 else 2] += 1
            entry[0] = tuple(row)
            return rows
    items[0].append((0, 0))
    return rows


def _verifiers_can_fail() -> None:
    seqs = [(2, 5), (9, 12)]
    assert verify.rows_equal(seqs, seqs)
    assert not verify.rows_equal(seqs, [(2, 5), (9, 13)])
    assert not verify.rows_equal(seqs[:1], seqs)          # a push lost
    assert not verify.rows_equal(seqs + seqs[1:], seqs)   # a push doubled
    exact = {(0, 1): 9.0, (4, 6): 7.0, (8, 9): 7.0, (11, 12): 1.0}
    top = [(0, 1), (8, 9)]
    assert verify.ranked_rows_valid(top, [9.0, 6.5], 2, exact)   # tie member
    assert not verify.ranked_rows_valid([(0, 1), (11, 12)], [9.0, 1.0], 2, exact)
    assert not verify.ranked_rows_valid([(0, 1), (0, 1)], [9.0, 9.0], 2, exact)
    assert not verify.ranked_rows_valid(top, [6.5, 9.0], 2, exact)  # order
    assert not verify.ranked_rows_valid(top[:1], [9.0], 2, exact)   # short
    assert not verify.ranked_rows_valid([(0, 1), (5, 6)], [9.0, 7.0], 2, exact)
    assert verify.ranked_f1([(0, 1), (11, 12)], 2, exact) == 0.5
    rows = [("v0", 3, 4, 1.25)]
    assert verify.rows_equal(rows, [["v0", 3, 4, 1.25]])
    assert not verify.rows_equal(rows, [("v0", 3, 4, 1.5)])
    assert verify.digest(rows) == verify.digest([("v0", 3, 4, 1.2500001)])
    assert verify.digest(rows) != verify.digest([("v0", 3, 5, 1.25)])


# -- entry point -----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=ROOT / ".svqbench_out",
        help="where trace-<workload>.json and scratch repositories go",
    )
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: rounds over the six")
    parser.add_argument("--vary-seed", action="store_true",
                        help="all-workloads mode: round i uses --seed + i")
    parser.add_argument("--json", help="all-workloads mode: write the runs here")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument(
        "--update-expected", action="store_true",
        help="rewrite expected.json from this tree's rows (a benchmark "
             "change, never part of a change that claims a gain)",
    )
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.selfcheck:
        return selfcheck(args.out)
    if args.update_expected:
        digests = {
            name: run_workload(
                name, inputs.DEFAULT_SEED, 0.0, False, "full", args.out, min_reps=2
            ).digest
            for name in workloads.WORKLOADS
        }
        (HERE / "expected.json").write_text(json.dumps(digests, indent=1) + "\n")
        return 0
    if args.workload is None:
        return run_all(args)
    run = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), "full", args.out
    )
    print(json.dumps(run.line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
