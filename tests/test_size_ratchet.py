"""Size ratchets for ``src/`` (ROADMAP items 1d, 1e, 2, 4 and 22) and the
docs (item 11e).

The roadmap wants the online pipeline at or under 2,700 lines and a
smaller ``src/`` overall, and both drifted upward for PRs that promised
the opposite.  Each group has two ceilings, its physical lines and its code
tokens (:mod:`tests.code_size`: no comments, docstrings or layout), each the
sum as of the last PR that shrank its files: a change that grows them past
either fails here and has to take the code out somewhere else; a change
that shrinks them lowers the ceiling to the new sum.  A ceiling is never
raised.  Lines alone can be cut by joining calls or trimming docstrings;
tokens cannot.  DESIGN.md has a byte ceiling of the same kind, and a
CHANGES.md entry written since that ceiling came in is at most 2 KB.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from tests.code_size import code_tokens

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"

#: DESIGN.md's bytes: 94,856 before the linter became a test, 94,039 after,
#: 93,987 with the threshold knobs out, 93,821 with the process pool out,
#: 93,277 with the paper harness out of the package, 93,193 with a solo
#: stream consuming its run in one call, 93,153 with the charge ledger
#: booking when it is read, 92,527 with what only tests reached out, 92,507
#: with Eq. 5 one shared table.
DESIGN_BYTES = 92507

#: The largest CHANGES.md entry, in bytes, and the first entry number held
#: to it (the entries before it predate the cap).
ENTRY_BYTES = 2048
CAPPED_FROM = 36

#: (what, files, line ceiling, code-token ceiling).  The token ceilings came
#: in with the reach census (ROADMAP item 18), pinned at its post-cut sums.
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
        # scheduler loop out and a bundle's own fields read typed, 2,730 with
        # every checkpoint read through one declared reader, 2,681 with
        # every checkpoint written from its declaration, 2,671 with the
        # rate book's flush calls and the stepper's passive mode out, 2,658
        # with the stepper's per-row update lists out (one fold a row), 2,628
        # with the threshold knobs and `for_video` out, 2,604 with the
        # accessors only tests reached out, 2,581 with a stepper calling the
        # rate bank itself and the policies built in `for_query`; the
        # roadmap's target is 2,700.
        "the online core",
        [
            "core/session.py", "core/indicators.py", "core/scheduler.py",
        ],
        2581, 12272,
    ),
    (
        # 1,690 before PR 14, 1,561 after it, 1,171 after PR 21, 1,010 with
        # the scalar estimator's stream in tests/reference and the shared
        # policy's checkpoint methods inherited, 998 with the estimator
        # rows written from their record, 865 with the rate book's queue,
        # the sink protocol and the fleet-wide bank out, 853 with one
        # `fold_row` call a row (`update_row`, `rate_row`, `_exp`,
        # `step_rows` and `apply` out), 844 with the scalar estimator's
        # writer in tests/reference, 812 with the quota read inside the
        # bank's loop (`fold`, `_requantise` and `refresh_all` out).
        "the Eq. 6 update path",
        ["core/dynamics.py", "core/ratebook.py", "scanstats/kernel.py"],
        812, 3464,
    ),
    (
        # 1,841 before PR 19, which put P_q on columns and one bound row a
        # length class into these files and pinned them at what that took;
        # 1,874 with the repository manifest read through its declaration,
        # 1,838 with it written from its declaration too, 1,832 with a
        # table's columns adopted as one named tuple, each metadata file
        # read once (the manifest's video id and the label sets checked)
        # and interval runs, points and membership read off the columns,
        # 1,826 with `max_live_upper` out and K checked by one helper, 1,706
        # with the interval, table and repository helpers only tests
        # reached out and TBClip's exhaustion test folded into `drained`.
        "the offline core",
        [
            "core/rvaq.py", "core/tbclip.py", "utils/intervals.py",
            "storage/table.py", "storage/repository.py",
        ],
        1706, 8780,
    ),
    (
        # 575 before PR 22 listed the counters and the meter tables once
        # each, 438 with their records declared from those lists, 437 with
        # the stats written from theirs, 436 with the meter settling the
        # standing charge ledgers on a read and its unread `breakdown` and a
        # context's `stage_wall_s()` out, 435 with the engine's thread
        # fan-out, which the meter's docstring named, out; item 4b's spans
        # start from here.
        "the accounting",
        ["core/context.py", "detectors/cost.py"],
        435, 1831,
    ),
    (
        # 4,008 before PR 22 took out the process pool, the result cache and
        # the baseline; 3,599 before PR 23 took out the four flow rules that
        # never reported a defect and the CFG / call-graph engine under them;
        # 1,971 before the version lattice (RL008 and the project index)
        # moved into the declarations; 1,375 before the five rules moved
        # into tests/lint and the package went.
        "the linter",
        sorted(str(p.relative_to(PACKAGE)) for p in (PACKAGE / "lint").rglob("*.py")),
        0, 0,
    ),
    (
        # 24,592 before PR 17 (24,591 by `wc -l`), 23,639 after it, 23,638
        # after PR 21, 23,072 after PR 22, 21,448 after PR 23, 21,155 after
        # PR 24.
        # 21,153 with the charge ledger in and `selective` out, 20,826 with
        # the three solo algorithm wrappers out, 20,817 with one reader for
        # persisted input, 20,133 with one writer and the version lattice
        # held by the declarations, 19,984 with the rate book keeping no
        # queue, 19,743 with the service keeping one book (the query
        # registry and the consumable quota ledger out), 19,718 with a
        # rate group's Eq. 6 update one call a row, 19,704 with a cold open
        # reading each file once and a span list read in one pass, 19,222
        # with sharding a split in memory (the process executor, the
        # on-disk shard tree and the engine's sharded fork out), 17,847
        # with the linter a test (`src/repro/lint` out), 17,758 with a
        # detection the zoo's call (the threshold knobs and `for_video` out),
        # 17,675 with ingest's process pool and `map_ordered`'s initializer
        # hooks out, 15,770 with the paper harness in benchmarks/paper,
        # 15,757 with a solo stream consuming its run in one call (the
        # models' unread `vocabulary` property out), 15,754 with the charge
        # ledger booking when it is read (unread `with_overrides`,
        # `with_objects`, `breakdown` and `stage_wall_s()` out), 14,861 with
        # what only tests reached out (the reach census, tests/test_reach.py),
        # 14,772 with Eq. 5 one NumPy-filled table (the Naus blocks `Q1`–`Q3`
        # in tests/reference).
        "all of src/repro",
        sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py")),
        14772, 66947,
    ),
]


@pytest.mark.parametrize(
    "what, files, lines, tokens", RATCHETS, ids=[row[0] for row in RATCHETS]
)
def test_it_does_not_grow(what, files, lines, tokens):
    for unit, ceiling, size in (
        ("lines", lines, lambda path: len(path.read_text().splitlines())),
        ("code tokens", tokens, code_tokens),
    ):
        sizes = {name: size(PACKAGE / name) for name in files}
        total = sum(sizes.values())
        detail = sizes if len(sizes) <= 4 else f"{len(sizes)} files"
        assert total <= ceiling, (
            f"{what} is {total} {unit} ({detail}), over the committed ceiling "
            f"of {ceiling}: take the code out elsewhere in these files"
        )


def test_design_does_not_grow():
    size = len((REPO_ROOT / "DESIGN.md").read_bytes())
    assert size <= DESIGN_BYTES, (
        f"DESIGN.md is {size} bytes, over the committed ceiling of "
        f"{DESIGN_BYTES}: take the bytes out elsewhere in it"
    )


def test_a_changes_entry_is_at_most_2_kb():
    """An entry starts at a line opening with ``PR N`` (or ``- PR N``) and
    runs to the next such line."""
    entries: list[tuple[int, int]] = []
    for line in (REPO_ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines():
        match = re.match(r"(?:- )?PR (\d+)\b", line)
        if match:
            entries.append((int(match.group(1)), 0))
        if entries:
            number, size = entries[-1]
            entries[-1] = (number, size + len(line.encode()) + 1)
    assert len(entries) > 30  # the parse really saw the entries
    over = [(n, size) for n, size in entries if n >= CAPPED_FROM and size > ENTRY_BYTES]
    assert over == [], f"(PR, bytes) over {ENTRY_BYTES}: say less (ROADMAP item 11a)"
