"""A size ratchet for the online core (ROADMAP item 1d).

The four files below are the online pipeline; the roadmap wants their sum
at or under 2,700 lines and it drifted upward for three PRs while saying
so.  The ceiling is the sum as of the last PR that shrank them: a change
that grows them past it fails here and has to take the lines out
somewhere else; a change that shrinks them lowers ``CEILING`` to the new
sum.  It is never raised.
"""

from __future__ import annotations

from pathlib import Path

CORE = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"
FILES = ("session.py", "predicates.py", "indicators.py", "scheduler.py")

#: 3,312 before PR 16; the roadmap's target is 2,700.
CEILING = 3133


def test_the_online_core_does_not_grow():
    sizes = {
        name: len((CORE / name).read_text().splitlines()) for name in FILES
    }
    total = sum(sizes.values())
    assert total <= CEILING, (
        f"{' + '.join(FILES)} is {total} lines ({sizes}), over the "
        f"committed ceiling of {CEILING}: take the lines out elsewhere "
        f"in these files (ROADMAP item 1d)"
    )
