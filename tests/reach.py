"""Which functions of ``src/repro`` the system's own traffic calls.

The traffic is what the system serves: the examples, the README's Python
blocks, a table of ``repro`` CLI calls and the paper runner (the tier-1
set, :data:`PIECES`), and in CI also svqbench and the two legacy benchmark
scripts (:data:`FULL_PIECES`).  Each piece runs in its own process under
``sys.setprofile`` (:func:`trace`), which records every code object that
starts; :func:`definitions` lists every ``def`` of the package and
:func:`findings` compares the two against an allowlist.

    python -m tests.reach [--full] [--summary FILE]

runs the census from the repository root (with ``repro`` importable, e.g.
``PYTHONPATH=src``) and exits 1 on a finding; with
``--full`` it adds the CI pieces, and ``--summary`` appends the unreached
counts for both traffic sets to ``FILE`` as Markdown.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping

from tests.code_size import code_token_positions

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"

#: The reasons an allowlist entry may give: a CI step reaches it, an open
#: ROADMAP item will call it, or Python calls it implicitly.
REASON = re.compile(r"svqbench|item \d+[a-z]?|data model")


@dataclass(frozen=True)
class Definition:
    """One ``def`` of the package, keyed ``path::Qual.name``."""

    path: str
    first: int  # the line of its first decorator, or of the ``def``
    lines: range  # every physical line it spans
    stub: bool  # its body is only ``...``, ``pass`` or a docstring


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return all(
        isinstance(stmt, ast.Pass)
        or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        and (stmt.value.value is Ellipsis or isinstance(stmt.value.value, str))
        for stmt in node.body
    )


def definitions(package: Path = PACKAGE) -> dict[str, Definition]:
    """Every function and method of ``package``, nested ones included."""
    found: dict[str, Definition] = {}

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                key = f"{path}::{name}"
                while key in found:  # a property's setter, a redefinition
                    key += "'"
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                assert child.end_lineno is not None
                found[key] = Definition(
                    path, first, range(first, child.end_lineno + 1), _is_stub(child)
                )
                walk(child, path, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for file in sorted(package.rglob("*.py")):
        path = file.relative_to(package).as_posix()
        walk(ast.parse(file.read_text(encoding="utf-8")), path, "")
    return found


def findings(
    defs: Mapping[str, Definition],
    reached: set[str],
    allowlist: Mapping[str, str],
    *,
    full: bool = False,
) -> list[str]:
    """What is wrong with ``allowlist`` given the reached keys.

    A function that is not a stub must be reached or listed; an entry must
    name a listed function that is not a stub, give a reason from the
    closed set, and not be reached.  Under the ``full`` traffic an entry
    marked ``svqbench`` must be reached instead.
    """
    out = []
    for key, definition in defs.items():
        if definition.stub:
            if key in allowlist:
                out.append(f"{key}: a stub needs no entry")
            continue
        if key not in allowlist:
            if key not in reached:
                out.append(f"{key}: unreached ({len(definition.lines)} lines)")
            continue
        reason = allowlist[key]
        if not REASON.fullmatch(reason):
            out.append(f"{key}: {reason!r} is not a reason")
        elif full and reason == "svqbench":
            if key not in reached:
                out.append(f"{key}: marked svqbench but svqbench does not reach it")
        elif key in reached:
            out.append(f"{key}: reached, so the entry goes")
    out += [f"{key}: no such function, so the entry goes" for key in allowlist if key not in defs]
    return out


def unreached_size(defs: Mapping[str, Definition], reached: set[str]) -> tuple[int, int, int]:
    """(functions, lines, code tokens) of the non-stub functions not reached;
    a line of a function nested in another counts once."""
    missed = [d for key, d in defs.items() if not d.stub and key not in reached]
    rows: dict[str, set[int]] = {}
    for definition in missed:
        rows.setdefault(definition.path, set()).update(definition.lines)
    tokens = sum(
        sum(row in lines for row, _ in code_token_positions((PACKAGE / path).read_text()))
        for path, lines in rows.items()
    )
    return len(missed), sum(map(len, rows.values())), tokens


# -- the traffic --------------------------------------------------------------

ONLINE_AND = (
    "SELECT MERGE(clipID) AS Sequence FROM (PROCESS inputVideo PRODUCE clipID, "
    "obj USING ObjectDetector, act USING ActionRecognizer) "
    "WHERE act = 'smoking' AND obj.include('cup')"
)
ONLINE_OR = ONLINE_AND.replace(" AND ", " OR ")
OFFLINE = f"{ONLINE_AND} ORDER BY RANK(act, obj) LIMIT 3"
FAULT_PROFILES = ("none", "transient", "flaky", "chaos")
ON_FAILURE = ("fail_clip", "skip_predicate", "hold_last_estimate")


def cli_table(repo: str, tampered: str) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) for every row of the CLI traffic: ``repo``
    is a saved repository, ``tampered`` one whose tables disagree."""
    small = ["--scale", "0.05"]
    rows: list[tuple[list[str], int]] = [
        (["list"], 0),
        (["demo"], 0),
        (["query", OFFLINE, *small, "--stats"], 0),
        (["serve", "--cancel-after", "20"], 0),
        (["serve", "--snapshot-at", "30", "--stats-json"], 0),
        (["repo", "info", repo], 0),
        (["repo", "info", repo, "--json"], 0),
        (["topk", repo, "--action", "jumping", "--objects", "car", "--stats"], 0),
        (["topk", repo, "--action", "jumping", "--objects", "car", "--json", "--shards", "2"], 0),
        (["query", "SELEC foo", "--movie", "x"], 2),
        (["topk", repo + "-missing", "--action", "jumping"], 2),
        (["topk", tampered, "--action", "jumping", "--objects", "car"], 2),
    ]
    for sql in (ONLINE_AND, ONLINE_OR):
        for order in ("user", "cost"):
            rows.append((["query", sql, *small, "--predicate-order", order, "--stats"], 0))
    rows.append((["query", ONLINE_AND, *small, "--stats-json"], 0))
    for sql in (ONLINE_AND, OFFLINE):
        for p, profile in enumerate(FAULT_PROFILES):
            for f, policy in enumerate(ON_FAILURE):
                # Chaos exhausts the online query's retries: fail_clip ends
                # it with one error line.  Each offline row ingests under
                # its own fault tape.
                fails = sql == ONLINE_AND and (profile, policy) == ("chaos", "fail_clip")
                seed = 0 if sql == ONLINE_AND else 3 * p + f
                rows.append((
                    ["query", sql, *small, "--fault-profile", profile, "--retries", "3",
                     "--on-failure", policy, "--seed", str(seed), "--stats"],
                    2 if fails else 0,
                ))
    return rows


def _run_cli(scratch: Path) -> None:
    from repro.cli import main
    from repro.storage.repository import VideoRepository
    from repro.storage.synth import synthetic_repository
    from repro.storage.table import ClipScoreTable

    repo = synthetic_repository(n_videos=2, n_clips=40, seed=1)
    repo.save(scratch / "repository")
    # The car table loses a clip of P_q: the ranking reaches it and stops.
    ingest = repo.ingest_of("v0")
    missing = ingest.sequences_for("car").intersect(ingest.sequences_for("jumping"))[0].start
    cids, scores = ingest.table_for("car").export_columns()[:2]
    kept = cids != missing
    tampered = VideoRepository()
    tampered.add(replace(ingest, object_tables={
        "car": ClipScoreTable.from_columns("car", cids[kept], scores[kept]),
    }))
    tampered.save(scratch / "tampered")
    for argv, expected in cli_table(str(scratch / "repository"), str(scratch / "tampered")):
        code = main(argv)
        assert code == expected, f"repro {' '.join(argv)} exited {code}, not {expected}"


def readme_blocks() -> list[str]:
    """The README's ```python blocks, in order."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def _run_readme(scratch: Path) -> None:
    exec(compile("\n".join(readme_blocks()), "README.md", "exec"), {"__name__": "__main__"})


def _run_script(scratch: Path, path: Path, *argv: str) -> None:
    sys.argv = [str(path), *(arg.format(scratch=scratch) for arg in argv)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exit:
        assert exit.code in (0, None), f"{path.name} exited {exit.code}"


def _script(path: Path, *argv: str) -> Callable[[Path], None]:
    return lambda scratch: _run_script(scratch, path, *argv)


def _run_examples(scratch: Path) -> None:
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        _run_script(scratch, path)


#: Each piece is one traced process; the longest come first, so two
#: workers finish together.
PIECES: dict[str, Callable[[Path], None]] = {
    "benchmarks/paper/run.py": _script(
        REPO_ROOT / "benchmarks" / "paper" / "run.py", "--out", "{scratch}/results"
    ),
    "repro CLI": _run_cli,
    "examples/": _run_examples,
    "README.md": _run_readme,
}

BENCH = REPO_ROOT / "benchmarks"
FULL_PIECES: dict[str, Callable[[Path], None]] = {
    "svqbench --selfcheck": _script(BENCH / "svqbench" / "run.py", "--selfcheck"),
    "svqbench --seconds 1": _script(BENCH / "svqbench" / "run.py", "--seconds", "1"),
    "bench_offline_topk.py": _script(
        BENCH / "bench_offline_topk.py", "--smoke", "--out", "{scratch}/offline.json"
    ),
    "bench_online_throughput.py": _script(
        BENCH / "bench_online_throughput.py", "--smoke", "--out", "{scratch}/online.json"
    ),
    "bench_offline_topk.py chaos": _script(
        BENCH / "bench_offline_topk.py", "--smoke", "--fault-profile", "chaos",
        "--out", "{scratch}/offline.json",
    ),
    "bench_online_throughput.py flaky": _script(
        BENCH / "bench_online_throughput.py", "--smoke", "--fault-profile", "flaky",
        "--out", "{scratch}/online.json",
    ),
}


# -- tracing ------------------------------------------------------------------


def _trace(piece: str, out: Path) -> None:
    """Run one piece in this process under the profile hook and write the
    (path, first line) of every package function that started to ``out``."""
    seen: set = set()

    def hook(frame, event, arg):  # type: ignore[no-untyped-def]
        if event == "call":
            seen.add(frame.f_code)

    run = {**PIECES, **FULL_PIECES}[piece]
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            run(Path(scratch))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)  # type: ignore[arg-type]
    package = str(PACKAGE) + os.sep
    out.write_text(json.dumps(sorted(
        [code.co_filename[len(package):].replace(os.sep, "/"), code.co_firstlineno]
        for code in seen
        if code.co_filename.startswith(package)
    )))


def trace(pieces: Iterable[str]) -> set[tuple[str, int]]:
    """The (path, first line) of every package function the pieces start,
    each piece in its own process, two at a time; a piece that fails
    raises."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
    }

    def one(piece: str, out: Path) -> list[tuple[str, int]]:
        done = subprocess.run(
            [sys.executable, "-m", "tests.reach", "--trace", piece, str(out)],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            raise AssertionError(f"{piece} exited {done.returncode}:\n{done.stderr[-3000:]}")
        return [tuple(hit) for hit in json.loads(out.read_text())]

    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        names = list(pieces)
        runs = pool.map(one, names, [Path(tmp) / f"{i}.json" for i in range(len(names))])
        return {hit for hits in runs for hit in hits}


def reached_keys(defs: Mapping[str, Definition], hits: set[tuple[str, int]]) -> set[str]:
    return {key for key, d in defs.items() if (d.path, d.first) in hits}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.reach")
    parser.add_argument("--full", action="store_true", help="add svqbench and the legacy scripts")
    parser.add_argument("--summary", type=Path, help="append the unreached counts here")
    parser.add_argument("--trace", nargs=2, metavar=("PIECE", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace:
        _trace(args.trace[0], Path(args.trace[1]))
        return 0

    from tests.test_reach import ALLOWLIST

    defs = definitions()
    tier1 = trace(PIECES)
    hits = tier1 | trace(FULL_PIECES) if args.full else tier1
    problems = findings(defs, reached_keys(defs, hits), ALLOWLIST, full=args.full)
    print("\n".join(problems) or "every function is reached or listed")
    if args.summary:
        with args.summary.open("a", encoding="utf-8") as out:
            out.write(f"### Unreached in src/repro, Python {sys.version.split()[0]}\n\n")
            out.write("| traffic | functions | lines | code tokens |\n|---|---|---|---|\n")
            sets = [("tier-1", tier1)] + ([("full", hits)] if args.full else [])
            for name, traffic in sets:
                functions, lines, tokens = unreached_size(defs, reached_keys(defs, traffic))
                out.write(f"| {name} | {functions} | {lines} | {tokens} |\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
