"""Fences that need no clock: the calls an online stream makes (ROADMAP
item 10).

A rate group's rows come from :meth:`RowStepper.run`, one loop over the
rows up to a stop: per row the lazy walk of the clause program, then the
Eq. 6 update of the previous clip for every label of the group.  That
update is one call into ``repro/scanstats/kernel.py``
(:meth:`KernelRateBank.fold_row`) whatever the label count, and it is the
only call a row makes: a quota that moves is a read of the shared Eq. 5
table inside that loop, so a row calls nothing in
``repro/scanstats/critical.py`` and no :class:`QuotaManager` method.  A
change that goes back to a call per label (a row update and its memoised
exponential made two) fails here, and so does one that grows the Python
calls a row makes, without a benchmark run.  A cold query fills its
tables without the scalar Naus tail, but for a tie.  Around the rows, a
solo session consumes its run with one feed call per cache chunk and
builds no ``ClipView`` (nor does a service step), a fleet's step per clip
makes no more calls than it used to, and a one-clip advance books no
charges itself.  Calls are counted with :func:`sys.setprofile` on a
second run, the first having built the critical-value tables.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

import repro

from repro.cli import main
from repro.core.config import OnlineConfig
from repro.core.dynamics import QuotaManager
from repro.core.engine import OnlineEngine
from repro.core.indicators import RowStepper
from repro.core.query import Query
from repro.core.session import ChunkFeed
from repro.detectors.zoo import default_zoo
from repro.scanstats import critical, naus
from repro.scanstats import kernel as kernel_module
from repro.service.service import QueryService
from repro.video.model import ClipView
from repro.video.stream import ClipStream
from tests.core.test_block_kernel import ACTION, street

VIDEO = street("fencevid", 600.0, seed=17)  # 300 clips: blocks of 256 and 44
RUN = RowStepper.run.__code__
PACKAGE = str(Path(repro.__file__).parent)
KERNEL = kernel_module.__file__
#: Code a produced row must not call: Eq. 5's module and the manager.
QUOTAS = {f.__code__ for f in vars(QuotaManager).values() if hasattr(f, "__code__")}


def profiled(run, watch) -> None:
    """Warm ``run()`` up, then run it again under ``watch(frame, event)``,
    called for every Python call and return inside ``repro`` (comprehensions
    are functions before Python 3.12: not counted)."""
    run()

    def profile(frame, event, _arg):
        code = frame.f_code
        if event in ("call", "return") and code.co_filename.startswith(PACKAGE) \
                and not code.co_name.startswith("<"):
            watch(frame, event)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)


def calls_per_row(run) -> tuple[int, dict[tuple[int, int], list[int]]]:
    """The rows :meth:`RowStepper.run` produced during ``run()``, and per
    row that made calls, ``[calls into kernel.py, calls into repro]`` and
    its calls into critical.py or a :class:`QuotaManager` method: a call
    belongs to the row the loop's ``i`` names when it is made."""
    produced = 0
    loops: list = []  # per RowStepper.run in progress: frame, cursor, serial
    calls: dict[tuple[int, int], list[int]] = {}

    def watch(frame, event):
        nonlocal produced
        if frame.f_code is RUN:
            stepper = frame.f_locals["self"]
            if event == "call":
                loops.append((frame, stepper.cursor, produced))
            else:
                produced += stepper.cursor - loops.pop()[1]
        elif loops and event == "call":
            loop, _, serial = loops[-1]
            row = calls.setdefault((serial, loop.f_locals["i"]), [0, 0, 0])
            row[0] += frame.f_code.co_filename == KERNEL
            row[1] += 1
            row[2] += frame.f_code.co_filename == critical.__file__ or frame.f_code in QUOTAS

    profiled(run, watch)
    return produced, calls


#: Python calls into ``repro`` per produced row, at most: 11.36 (2 labels)
#: and 16.02 (4 labels) when each label's update was two kernel calls under
#: three manager layers; 4.48 and 5.13, the fold and its bucket moves, both
#: while a row was a ``step()`` call of its own and in one loop since;
#: 299 / 300 for both since the stepper calls the bank and a bucket move is
#: a table read (one call a row but the stream's first).  Lower these when
#: a change lowers the count.
CEILINGS = {2: 299 / 300, 4: 299 / 300}


@pytest.mark.parametrize("members", [1, 3], ids=["solo", "three-member group"])
@pytest.mark.parametrize("objects", [["car"], ["car", "person", "dog"]], ids=["2", "4"])
def test_one_kernel_call_a_row_whatever_the_label_count(objects, members):
    query = Query(objects=objects, action=ACTION)
    if members == 1:
        def run():
            return OnlineEngine(default_zoo(seed=3), OnlineConfig()).run(query, VIDEO)
    else:
        def run():
            return OnlineEngine(default_zoo(seed=3)).run_queries([query] * members, VIDEO)
    produced, calls = calls_per_row(run)
    assert produced == VIDEO.meta.n_clips  # one stepper row a clip, for the group
    kernel = [row[0] for row in calls.values()]
    # Every row but the stream's first folds the one before it, in one call
    # (a block's first row folds the clip the last block handed over).
    assert max(kernel) == 1 and sum(kernel) == produced - 1
    assert sum(row[2] for row in calls.values()) == 0  # no quota call a row
    per_row = sum(row[1] for row in calls.values()) / produced
    assert per_row <= CEILINGS[len(objects) + 1]


def counted(run, *codes) -> list[int]:
    """How often ``run()`` entered each of ``codes``."""
    counts = [0] * len(codes)

    def watch(frame, event):
        if event == "call" and frame.f_code in codes:
            counts[codes.index(frame.f_code)] += 1

    profiled(run, watch)
    return counts


@pytest.mark.parametrize("algorithm", ["svaq", "svaqd"])
@pytest.mark.parametrize("objects", [["car"], ["car", "person", "dog"]], ids=["2", "4"])
def test_a_solo_stream_builds_no_clip_view_and_enters_the_feed_once_a_chunk(
    objects, algorithm
):
    """``OnlineEngine.run`` reads its stream's ids as a range, and under
    the user's order a session consumes a cache chunk per feed call."""
    query = Query(objects=objects, action=ACTION)
    zoo = default_zoo(seed=3)
    engine = OnlineEngine(zoo, OnlineConfig(cache_chunk_clips=64))
    views, steps = counted(
        lambda: engine.run(query, VIDEO, algorithm),
        ClipView.__post_init__.__code__, ChunkFeed.step.__code__,
    )
    assert views == 0
    assert steps == math.ceil(VIDEO.meta.n_clips / 64) == 5


#: Python calls into ``repro`` per clip of a three-query ``run_queries``
#: (one object each, with the action) over the 300 clips: 3,628 (SVAQ) and
#: 8,278 (SVAQD, three rate groups) when the stream was a ``ClipView`` a
#: clip, 1,522 and 6,172 since a solo stream consumes its run in one call,
#: and still that since the charge ledger books when it is read; 3,313
#: (SVAQD) since a stepper's row is one bank call.
FLEET_CEILINGS = {"svaq": 1522 / 300, "svaqd": 3313 / 300}


@pytest.mark.parametrize("algorithm", ["svaq", "svaqd"])
def test_a_fleet_step_makes_no_more_calls_per_clip(algorithm):
    """A fleet keeps its per-clip emission: one feed step a clip, every
    rate group's loop producing one row."""
    queries = [Query(objects=[o], action=ACTION) for o in ("car", "person", "dog")]
    calls = 0

    def watch(frame, event):
        nonlocal calls
        calls += event == "call"

    profiled(
        lambda: OnlineEngine(default_zoo(seed=3)).run_queries(queries, VIDEO, algorithm),
        watch,
    )
    assert calls / VIDEO.meta.n_clips <= FLEET_CEILINGS[algorithm]


#: Python calls into ``repro`` per clip of the same fleet started with
#: ``start_queries`` and advanced one clip a call, then finished: 5,301
#: (SVAQ) and 10,147 (SVAQD) while every advance booked its row's charges
#: before it returned, 4,218 and 8,868 since a ledger books when it is read,
#: and 6,009 (SVAQD) since a stepper's row is one bank call.
ONE_CLIP_CEILINGS = {"svaq": 4218 / 300, "svaqd": 6009 / 300}


@pytest.mark.parametrize("algorithm", ["svaq", "svaqd"])
def test_a_one_clip_advance_charges_nothing_itself(algorithm):
    """A monitoring fleet advances clip by clip: each advance moves the
    feed's cursor and its ledger's consumed mark, and the charges are
    booked when someone reads them."""
    queries = [Query(objects=[o], action=ACTION) for o in ("car", "person", "dog")]
    calls = 0

    def watch(frame, event):
        nonlocal calls
        calls += event == "call"

    def run():
        fleet = OnlineEngine(default_zoo(seed=3)).start_queries(queries, VIDEO, algorithm)
        for clip in ClipStream(VIDEO.meta):
            fleet.advance([clip])
        fleet.finish()

    profiled(run, watch)
    assert calls / VIDEO.meta.n_clips <= ONE_CLIP_CEILINGS[algorithm]


def test_a_service_step_builds_no_clip_view():
    """A service step takes its batch off the stream as a range of ids."""
    queries = [Query(objects=[o], action=ACTION) for o in ("car", "person")]

    def run():
        service = QueryService(default_zoo(seed=3), clip_batch=8)
        service.add_stream("cam", VIDEO)
        for query, algorithm in zip(queries, ("svaq", "svaqd")):
            service.register("cam", query, algorithm=algorithm)
        while service.step("cam"):
            pass
        assert service.done("cam")

    views, steps = counted(
        run, ClipView.__post_init__.__code__, QueryService.step.__code__
    )
    assert views == 0
    assert steps == math.ceil(VIDEO.meta.n_clips / 8) + 1


def test_a_cold_query_calls_the_scalar_tail_only_to_break_a_tie(capsys):
    """``repro query`` with no table built and no value memoised: its
    tables and initial quotas come from the NumPy kernel, which evaluates
    the scalar Naus tail only where a tail lies within ``TIE`` of alpha."""
    critical.critical_table.cache_clear()
    critical._critical_value_cached.cache_clear()
    searches = untied = 0

    def profile(frame, event, _arg):
        nonlocal searches, untied
        if event == "call" and frame.f_code is critical._search.__code__:
            searches += 1
        elif event == "call" and frame.f_code is naus.naus_scan_tail.__code__:
            untied += frame.f_back.f_code is not critical._search.__code__

    sql = (
        "SELECT MERGE(clipID) AS Sequence FROM (PROCESS inputVideo PRODUCE clipID, "
        "obj USING ObjectDetector, act USING ActionRecognizer) "
        "WHERE act = 'smoking' AND obj.include('cup')"
    )
    sys.setprofile(profile)
    try:
        assert main(["query", sql]) == 0
    finally:
        sys.setprofile(None)
    assert "sequences" in capsys.readouterr().out
    assert (searches, untied) == (2, 0)  # one pass a table: objects, actions
