"""The persisted-shape declarations are locked to their versions.

``tests/persisted_shapes.lock.json`` records every versioned record's shape
as :mod:`tests.persisted_lock` renders it from the declaration.  The live
declarations must match it: a shape that moves without its version fails
here naming the moved path, and a moved version prints the entry to
commit.  The scenarios below move copies of the real declarations, built
with :func:`dataclasses.make_dataclass` under the same qualified name.
"""

from __future__ import annotations

import json
from dataclasses import fields, make_dataclass
from typing import Any, Literal, get_type_hints

from repro.core.optimizer import OptimizerState
from repro.core.scheduler import FleetCheckpoint
from repro.core.session import SessionCheckpoint
from repro.storage.repository import Manifest, VideoEntry
from repro.utils.validation import Nested
from tests.persisted_lock import committed, entry, live, problems

SESSION = "repro.core.session.SessionCheckpoint"
FLEET = "repro.core.scheduler.FleetCheckpoint"


def moved(record: Any, rename: dict[str, str] | None = None, **kinds: Any) -> Any:
    """A copy of ``record`` with fields renamed and kinds replaced, under the
    same module and qualified name (so it takes the real one's lock entry)."""
    rename = rename or {}
    hints = get_type_hints(record, include_extras=True)
    copy = make_dataclass(
        record.__name__,
        [(rename.get(f.name, f.name), kinds.get(f.name, hints[f.name])) for f in fields(record)],
        frozen=True,
    )
    copy.__module__, copy.__qualname__ = record.__module__, record.__qualname__
    return copy


def against_the_lock(name: str, record: Any) -> list[str]:
    return problems({**live(), name: entry(record)}, committed())


def test_the_declarations_match_the_committed_lock():
    found = problems(live(), committed())
    assert found == [], "\n\n".join(found)


def test_the_lock_holds_the_four_versioned_records():
    assert {name: locked["version"] for name, locked in committed().items()} == {
        FLEET: 3,
        SESSION: 7,
        "repro.service.migration.ServiceState": 2,
        "repro.storage.repository.Manifest": 3,
    }


def test_a_shape_change_without_a_version_bump_is_reported():
    found = against_the_lock(SESSION, moved(SessionCheckpoint, {"trace": "trace_v8"}))
    assert len(found) == 1
    assert "changed shape at trace, trace[], trace[]{}, trace_v8" in found[0]
    assert "without moving its version from 7" in found[0]


def test_a_nested_rename_without_a_version_bump_is_reported():
    """Renaming ``OptimizerState.fired`` moves the session checkpoint's
    shape at ``optimizer.fired``, two records down."""
    optimizer = moved(OptimizerState, {"fired": "fires"})
    found = against_the_lock(SESSION, moved(SessionCheckpoint, optimizer=optimizer))
    assert len(found) == 1
    assert "optimizer.fired, optimizer.fired{}, optimizer.fires" in found[0]


def bumped() -> dict[str, Any]:
    """The live entries with the session checkpoint's shape moved *and* its
    version bumped to 8, the fleet bundle holding that checkpoint."""
    session = moved(SessionCheckpoint, {"trace": "trace_v8"}, version=Literal[8])
    fleet = moved(FleetCheckpoint, sessions=dict[str, Nested[session]])
    return {**live(), SESSION: entry(session), FLEET: entry(fleet)}


def test_a_bumped_version_flags_the_stale_lock():
    found = problems(bumped(), committed())
    assert len(found) == 2
    assert found[0].startswith(f"{FLEET}: a nested door moved its version at sessions{{}}:door")
    assert found[1].startswith(f"{SESSION} moved to version 8; commit this entry:")


def test_committing_the_printed_entries_settles_the_bump():
    lock = committed()
    for problem in problems(bumped(), lock):
        lock.update(json.loads(problem.split("commit this entry:\n", 1)[1]))
    assert problems(bumped(), lock) == []
    assert problems(live(), lock)  # and the old declarations no longer match


def test_a_repository_manifest_change_is_reported():
    video = moved(VideoEntry, {"sha256": "digest"})
    found = against_the_lock("repro.storage.repository.Manifest", moved(Manifest, videos=list[video]))
    assert len(found) == 1
    assert "videos[].digest, videos[].digest{}, videos[].sha256, videos[].sha256{}" in found[0]
    assert "without moving its format from 3" in found[0]


def test_a_versioned_record_missing_from_the_lock_is_reported():
    lock = committed()
    del lock["repro.storage.repository.Manifest"]
    found = problems(live(), lock)
    assert len(found) == 1
    assert "not in the lock; commit this entry" in found[0]
