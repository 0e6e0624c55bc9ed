#!/usr/bin/env python3
"""Regenerate the paper's §5 tables, figures and ablations::

    python benchmarks/paper/run.py [--only NAME ...] [--scale S] [--seed N] [--out DIR]

Runs the drivers of this package in :data:`EXPERIMENTS` order, writes each
one's rendered rows to ``DIR/<name>.txt`` (``benchmarks/results`` by
default), then runs its ``check(result)``.  ``--scale`` (default 0.25)
scales the datasets; 1.0 is the paper's full video volume.  An unknown
name or an unwritable ``DIR`` is one error line and exit 2, before any
experiment runs; a failed check is exit 1 naming the experiment, after
every other file is written.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent

#: Each experiment in run order, with its driver's arguments other than
#: the seed at the global scale ``s``.  The movie top-K tables ingest at
#: twice the scale (they need the paper's sequence counts); the twelve-query
#: sweep and the YouTube top-K table are capped at 0.15; the kernel ablation
#: synthesizes six drifting videos and the Markov ablation takes no data.
EXPERIMENTS: dict[str, Callable[[float], dict[str, Any]]] = {
    "fig2_background_prob": lambda s: {"scale": s},
    "fig3_f1_all_queries": lambda s: {"scale": min(0.15, s)},
    "table3_predicates": lambda s: {"scale": s},
    "table4_models": lambda s: {"scale": s},
    "table5_noise": lambda s: {"scale": s},
    "fig4_clip_size": lambda s: {"scale": s},
    "fig5_frame_f1": lambda s: {"scale": s},
    "runtime_decomposition": lambda s: {"scale": s},
    "table6_movie_topk": lambda s: {"scale": min(1.0, 2 * s)},
    "table7_youtube_topk": lambda s: {"scale": min(0.15, s)},
    "table8_speedup": lambda s: {"scale": min(1.0, 2 * s)},
    "ablation_alpha": lambda s: {"scale": s},
    "ablation_kernel_bandwidth": lambda s: {"n_videos": 6},
    "ablation_predicate_order": lambda s: {"scale": s},
    "ablation_markov": lambda s: {},
}


def error(message: str) -> None:
    print(f"run.py: error: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="Regenerate the paper's §5 experiments."
    )
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run these experiments only")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=HERE.parent / "results")
    args = parser.parse_args(argv)

    unknown = [name for name in args.only or () if name not in EXPERIMENTS]
    if unknown:
        error(f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
              f"known: {', '.join(EXPERIMENTS)}")
        return 2
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        error(f"cannot write to {args.out}: {exc.strerror or exc}")
        return 2

    failed = 0
    for name, arguments in EXPERIMENTS.items():
        if args.only and name not in args.only:
            continue
        module = importlib.import_module(f"paper.{name}")
        started = time.perf_counter()
        result = module.run(seed=args.seed, **arguments(args.scale))
        path = args.out / f"{name}.txt"
        try:
            path.write_text(result.render() + "\n")
        except OSError as exc:
            error(f"cannot write {path}: {exc.strerror or exc}")
            return 2
        print(f"{name}: {path} ({time.perf_counter() - started:.1f} s)")
        try:
            module.check(result)
        except AssertionError as exc:
            failed += 1
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            message = str(exc).partition("\n")[0]
            error(f"{name} fails its shape check at line {frame.lineno}: "
                  f"{frame.line} {message}".rstrip())
    return 1 if failed else 0


if __name__ == "__main__":
    # ``repro`` from this checkout's src/, and this package as ``paper``.
    sys.path[0:1] = [str(HERE.parents[1] / "src"), str(HERE.parent)]
    sys.exit(main())
