"""``benchmarks/paper/run.py``, the one door to the paper's §5 experiments.

At the default scale and seed the eleven experiments without a clock render
byte for byte what ``benchmarks/results`` holds.  The four timed ones
(Tables 6, 7, 8 and the runtime decomposition) carry measured wall time in
their rows (ROADMAP 8a), so only their shape is pinned: the same lines,
with the same first column.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from paper import run

PAPER = Path(run.__file__).resolve().parent
RESULTS = PAPER.parent / "results"
TIMED = ("runtime_decomposition", "table6_movie_topk", "table7_youtube_topk", "table8_speedup")
UNTIMED = [name for name in run.EXPERIMENTS if name not in TIMED]


def test_every_driver_of_the_package_is_in_the_table():
    helpers = {"__init__", "run", "harness", "endtoend", "tables"}
    drivers = sorted(p.stem for p in PAPER.glob("*.py") if p.stem not in helpers)
    assert drivers == sorted(run.EXPERIMENTS)
    assert sorted(p.stem for p in RESULTS.glob("*.txt")) == drivers


def test_the_untimed_experiments_render_the_committed_files(tmp_path):
    assert len(UNTIMED) == 11
    assert run.main(["--only", *UNTIMED, "--out", str(tmp_path)]) == 0
    assert sorted(p.stem for p in tmp_path.iterdir()) == sorted(UNTIMED)
    for name in UNTIMED:
        fresh = (tmp_path / f"{name}.txt").read_bytes()
        assert fresh == (RESULTS / f"{name}.txt").read_bytes(), name


def first_column(path: Path) -> list[str]:
    """Each line's first table cell, or the whole line outside a table."""
    return [
        line.split("|")[1].strip() if line.startswith("|") else line
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


@pytest.fixture(scope="module")
def timed(tmp_path_factory):
    out = tmp_path_factory.mktemp("timed")
    # Not asserted: Table 8's K=1 speedups are wall-clock ratios (8a).
    run.main(["--only", *TIMED, "--out", str(out)])
    return out


@pytest.mark.parametrize("name", TIMED)
def test_a_timed_experiment_renders_the_committed_rows(timed, name):
    assert first_column(timed / f"{name}.txt") == first_column(RESULTS / f"{name}.txt")


def test_an_unknown_name_is_one_line_and_writes_nothing(tmp_path):
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(PAPER / "run.py"), "--only", "table4_models", "table99",
         "--out", str(out)],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("run.py: error: unknown experiment(s) 'table99'; known: ")
    assert done.stderr.count("\n") == 1
    assert done.stdout == ""
    assert not out.exists()


def test_python_O_is_one_error_line_before_anything_runs(tmp_path):
    """``-O`` strips the asserts every ``check`` is made of, so a run
    under it could only pass unchecked."""
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-O", str(PAPER / "run.py"), "--only", "ablation_markov",
         "--out", str(out)],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 2
    assert done.stderr == (
        "run.py: error: the shape checks are asserts, which -O strips; run without -O\n"
    )
    assert done.stdout == ""
    assert not out.exists()


def test_an_unwritable_out_is_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    out = blocker / "results"
    assert run.main(["--only", "ablation_markov", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"run.py: error: cannot write to {out}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_a_failed_check_exits_1_after_every_file_is_written(tmp_path, capsys, monkeypatch):
    from paper import table4_models

    def refuse(result):
        raise AssertionError("forced")

    monkeypatch.setattr(table4_models, "check", refuse)
    argv = ["--only", "table4_models", "ablation_markov", "--scale", "0.05"]
    assert run.main([*argv, "--out", str(tmp_path)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ablation_markov.txt", "table4_models.txt",
    ]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("run.py: error: table4_models fails its shape check at line ")
    assert err[0].endswith(': raise AssertionError("forced") forced')
