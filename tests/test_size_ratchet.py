"""Size ratchets for ``src/`` (ROADMAP items 1d, 1e, 2 and 4).

The roadmap wants the online pipeline at or under 2,700 lines and a
smaller ``src/`` overall, and both drifted upward for PRs that promised
the opposite.  Each ceiling below is the sum as of the last PR that shrank
its files: a change that grows them past it fails here and has to take the
lines out somewhere else; a change that shrinks them lowers the ceiling to
the new sum.  A ceiling is never raised.
"""

from __future__ import annotations

from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (what, files, ceiling).
RATCHETS = [
    (
        # 3,312 before PR 16, 3,133 after it, 3,101 after PR 17, 3,093 after
        # PR 21, 3,087 after PR 22, 3,086 after PR 23 (the linter's lifecycle
        # tables and the fleet's second session list out, a bundle's specs
        # read as outside input in), 2,809 after PR 24 (`core/predicates.py`,
        # the second row type and `SvaqdSession` out, a session's entries
        # read as outside input in), 2,792 once the feed's charge
        # bookkeeping moved into the cache's `ChargeLedger`, 2,791 with the
        # metering read in and `evaluation_order` out, 2,765 with the batch
        # scheduler loop out and a bundle's own fields read typed; the
        # roadmap's target is 2,700.
        "the online core",
        [
            "core/session.py", "core/indicators.py", "core/scheduler.py",
        ],
        2765,
    ),
    (
        # 1,690 before PR 14, 1,561 after it, 1,171 after PR 21.
        "the Eq. 6 update path",
        ["core/dynamics.py", "core/ratebook.py", "scanstats/kernel.py"],
        1171,
    ),
    (
        # 1,841 before PR 19, which put P_q on columns and one bound row a
        # length class into these files and pinned them at what that took.
        "the offline core",
        [
            "core/rvaq.py", "core/tbclip.py", "utils/intervals.py",
            "storage/table.py", "storage/repository.py",
        ],
        1886,
    ),
    (
        # 575 before PR 22 listed the counters and the meter tables once
        # each; item 4b's spans start from here.
        "the accounting",
        ["core/context.py", "detectors/cost.py"],
        446,
    ),
    (
        # 4,008 before PR 22 took out the process pool, the result cache and
        # the baseline; 3,599 before PR 23 took out the four flow rules that
        # never reported a defect and the CFG / call-graph engine under them.
        "the linter",
        sorted(str(p.relative_to(PACKAGE)) for p in (PACKAGE / "lint").rglob("*.py")),
        1971,
    ),
    (
        # 24,592 before PR 17 (24,591 by `wc -l`), 23,639 after it, 23,638
        # after PR 21, 23,072 after PR 22, 21,448 after PR 23, 21,155 after
        # PR 24.
        # 21,153 with the charge ledger in and `selective` out, 20,826 with
        # the three solo algorithm wrappers out.
        "all of src/repro",
        sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py")),
        20826,
    ),
]


@pytest.mark.parametrize(
    "what, files, ceiling", RATCHETS, ids=[row[0] for row in RATCHETS]
)
def test_it_does_not_grow(what, files, ceiling):
    sizes = {
        name: len((PACKAGE / name).read_text().splitlines()) for name in files
    }
    total = sum(sizes.values())
    detail = sizes if len(sizes) <= 4 else f"{len(sizes)} files"
    assert total <= ceiling, (
        f"{what} is {total} lines ({detail}), over the committed ceiling "
        f"of {ceiling}: take the lines out elsewhere in these files"
    )
