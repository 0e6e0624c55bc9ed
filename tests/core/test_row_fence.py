"""A fence that needs no clock: the calls an SVAQD row makes (ROADMAP
item 10).

A rate group's row is :meth:`RowStepper.step`: the lazy walk of the clause
program, then the Eq. 6 update of the previous clip for every label of the
group.  That update is one call into ``repro/scanstats/kernel.py``
(:meth:`KernelRateBank.fold_row`) whatever the label count; a change that
goes back to a call per label (a row update and its memoised exponential
made two) fails here, and so does one that grows the Python calls a row
makes, without a benchmark run.  Calls are counted with
:func:`sys.setprofile` on a second run, the first having warmed the
critical-value memo.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import repro

from repro.core.config import OnlineConfig
from repro.core.engine import OnlineEngine
from repro.core.indicators import RowStepper
from repro.core.query import Query
from repro.detectors.zoo import default_zoo
from repro.scanstats import kernel as kernel_module
from tests.core.test_block_kernel import ACTION, street

VIDEO = street("fencevid", 600.0, seed=17)  # 300 clips, one stepper block
STEP = RowStepper.step.__code__
PACKAGE = str(Path(repro.__file__).parent)
KERNEL = kernel_module.__file__


def calls_per_row(run) -> list[tuple[int, int]]:
    """Per :meth:`RowStepper.step` of ``run()``: the calls it made into
    ``repro/scanstats/kernel.py`` and into all of ``repro``."""
    run()  # warms the critical-value memo
    rows: list[tuple[int, int]] = []
    kernel = calls = inside = 0

    def profile(frame, event, _arg):
        nonlocal kernel, calls, inside
        code = frame.f_code
        if code is STEP:
            if event == "call":
                inside, kernel, calls = inside + 1, 0, 0
            elif event == "return":
                inside -= 1
                rows.append((kernel, calls))
        # Comprehensions are functions before Python 3.12: not counted.
        elif inside and event == "call" and code.co_filename.startswith(PACKAGE) \
                and not code.co_name.startswith("<"):
            calls += 1
            kernel += code.co_filename == KERNEL

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return rows


#: Python calls into ``repro`` per row, at most: 11.36 (2 labels) and
#: 16.02 (4 labels) when each label's update was two kernel calls under
#: three manager layers.  Lower these when a change lowers the count.
CEILINGS = {2: 4.48, 4: 5.13}


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
    rows = calls_per_row(run)
    assert len(rows) == VIDEO.meta.n_clips  # one stepper row a clip, for the group
    assert max(kernel for kernel, _ in rows) == 1
    per_row = sum(calls for _, calls in rows) / len(rows)
    assert per_row <= CEILINGS[len(objects) + 1]
