"""Loaders refuse what this build does not write.

One version per artifact: a session checkpoint or a fleet bundle carrying
any other version — older, newer, missing, not an int — is a
``ConfigurationError`` that names it.  And a checkpoint is outside input:
an estimator entry that names a class (the v5 shape, which the loader used
to resolve with ``importlib``) is refused without importing anything,
through every door a checkpoint comes in by — session, fleet and service
bundle.  So are detection-cache charge runs ``state_dict`` would not have
written (the table is in ``tests/detectors/test_cache.py``), query specs
``spec_to_dict`` would not have written and session entries
``StreamSession.state_dict`` would not have written (both tables are here),
and fleet or service bundle fields their writers would not have written.
"""

from __future__ import annotations

import json
import re
import sys

import pytest

from repro.core.query import CompoundQuery, Query
from repro.core.scheduler import FLEET_STATE_VERSION, FleetRun, QuerySpec
from repro.core.session import CHECKPOINT_VERSION, StreamSession
from repro.detectors.zoo import default_zoo
from repro.errors import ConfigurationError
from repro.service import QueryService
from repro.video.stream import ClipStream
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=83, duration_s=120.0, video_id="refusalvid")
QUERY = Query(objects=["faucet"], action="washing dishes")
SPECS = [QuerySpec("a", QUERY), QuerySpec("b", QUERY, algorithm="svaq")]


def session_state():
    session = StreamSession.for_query(default_zoo(seed=3), QUERY, VIDEO)
    session.advance(ClipStream(VIDEO.meta, stop_clip=9))
    return json.loads(json.dumps(session.state_dict()))


def fleet_state(stop_clip=9):
    fleet = FleetRun(default_zoo(seed=3), VIDEO, queries=SPECS)
    fleet.advance(list(ClipStream(VIDEO.meta, stop_clip=stop_clip)))
    return json.loads(json.dumps(fleet.state_dict()))


def load_session(state):
    StreamSession.for_query(default_zoo(seed=3), QUERY, VIDEO).load_state_dict(
        state
    )


def load_fleet(state):
    FleetRun(default_zoo(seed=3), VIDEO).load_state_dict(state)


def other_versions(current: int):
    return pytest.mark.parametrize(
        "version",
        [current - 1, current + 1, None, str(current)],
        ids=["older", "newer", "missing", "non-int"],
    )


def with_version(state, version):
    if version is None:
        del state["version"]
    else:
        state["version"] = version
    return state


@other_versions(CHECKPOINT_VERSION)
def test_session_reads_its_own_version_only(version):
    with pytest.raises(
        ConfigurationError,
        match=re.escape(f"checkpoint.version must be {CHECKPOINT_VERSION}; got {version!r}"),
    ):
        load_session(with_version(session_state(), version))


@other_versions(FLEET_STATE_VERSION)
def test_fleet_reads_its_own_version_only(version):
    with pytest.raises(
        ConfigurationError,
        match=re.escape(f"checkpoint.version must be {FLEET_STATE_VERSION}; got {version!r}"),
    ):
        load_fleet(with_version(fleet_state(), version))


# -- nothing a checkpoint names is imported ----------------------------------------


def tag(estimators: dict, shape: str) -> None:
    """Make the first estimator entry name a class, either as v5 wrote it
    (``{"class", "state"}``) or slipped into the bare interchange dict."""
    label = next(iter(estimators))
    if shape == "v5":
        estimators[label] = {"class": "this:s", "state": estimators[label]}
    else:
        estimators[label]["class"] = "this:s"


def refused_without_import(load, state) -> None:
    sys.modules.pop("this", None)
    with pytest.raises(ConfigurationError, match="estimator"):
        load(state)
    assert "this" not in sys.modules


@pytest.mark.parametrize("shape", ["v5", "extra-key"])
def test_session_checkpoint_naming_a_class_is_refused(shape):
    state = session_state()
    tag(state["policy"]["estimators"], shape)
    refused_without_import(load_session, state)


@pytest.mark.parametrize("shape", ["v5", "extra-key"])
def test_fleet_bundle_naming_a_class_is_refused(shape):
    state = fleet_state()
    tag(state["sessions"]["a"]["policy"]["estimators"], shape)
    refused_without_import(load_fleet, state)


@pytest.mark.parametrize("shape", ["v5", "extra-key"])
def test_service_bundle_naming_a_class_is_refused(shape):
    service = QueryService(default_zoo(seed=3), clip_batch=4)
    service.add_stream("cam", VIDEO)
    service.register("cam", SPECS[0])
    service.step("cam")
    bundle = json.loads(json.dumps(service.snapshot().to_dict()))
    tag(bundle["streams"]["cam"]["sessions"]["a"]["policy"]["estimators"], shape)
    refused_without_import(
        lambda state: QueryService.resume(
            state, {"cam": VIDEO}, default_zoo(seed=3), clip_batch=4
        ),
        bundle,
    )


# -- charge runs nobody wrote ----------------------------------------------------------


def overrun(session: dict) -> None:
    """A run past the end of the video: it used to mark every clip from 5
    on as already charged, silently under-metering the rest of the stream."""
    assert session["cache"]["charged"]
    session["cache"]["charged"]["object:faucet"] = [[5, 100000]]


def test_fleet_bundle_with_a_malformed_charge_run_is_refused():
    state = fleet_state()
    overrun(state["sessions"]["a"])
    with pytest.raises(ConfigurationError, match="object:faucet"):
        load_fleet(state)


def test_service_bundle_with_a_malformed_charge_run_is_refused():
    service = QueryService(default_zoo(seed=3), clip_batch=4)
    service.add_stream("cam", VIDEO)
    service.register("cam", SPECS[0])
    service.step("cam")
    bundle = json.loads(json.dumps(service.snapshot().to_dict()))
    overrun(bundle["streams"]["cam"]["sessions"]["a"])
    with pytest.raises(ConfigurationError, match="object:faucet"):
        QueryService.resume(
            bundle, {"cam": VIDEO}, default_zoo(seed=3), clip_batch=4
        )


# -- execution counters nobody wrote ---------------------------------------------------
#
# The table of refused shapes is in ``tests/core/test_context.py``; these
# are the doors a bundle's ``contexts`` come in by.


def service_bundle():
    service = QueryService(default_zoo(seed=3), clip_batch=4)
    service.add_stream("cam", VIDEO)
    service.register("cam", SPECS[0])
    service.step("cam")
    return json.loads(json.dumps(service.snapshot().to_dict()))


@pytest.mark.parametrize(
    "damage, named",
    [
        (lambda contexts: {**contexts, "a": [1, 2]}, r"contexts\.a must"),
        (lambda contexts: {"b": contexts["b"]}, "no context for live query 'a'"),
        (lambda contexts: [1, 2], r"checkpoint\.contexts must"),
    ],
    ids=["an entry that is a list", "a live query without an entry", "a list"],
)
def test_fleet_bundle_with_malformed_contexts_is_refused(damage, named):
    state = fleet_state()
    state["contexts"] = damage(state["contexts"])
    with pytest.raises(ConfigurationError, match=named):
        load_fleet(state)


def test_service_bundle_with_a_malformed_counter_is_refused():
    bundle = service_bundle()
    bundle["streams"]["cam"]["contexts"]["a"]["clips_processed"] = "x"
    with pytest.raises(ConfigurationError, match="clips_processed"):
        QueryService.resume(
            bundle, {"cam": VIDEO}, default_zoo(seed=3), clip_batch=4
        )


# -- query specs nobody wrote ----------------------------------------------------------
#
# A bundle's ``specs`` decide which queries the resumed fleet runs: a spec
# ``spec_to_dict`` would not have written is refused, naming the field —
# it used to load as a different query (``"objects": "car"`` as the three
# objects c, a, r; no ``algorithm`` as svaqd; ``3.7`` as 3) or raise
# ``AttributeError`` / ``KeyError``.


def _query(spec, **changes):
    return {**spec, "query": {**spec["query"], **changes}}


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


#: case -> (what it does to spec "a" of the bundle, the field the error names)
REFUSED_SPECS = {
    "objects as a string": (lambda s: _query(s, objects="car"), "objects"),
    "no objects": (
        lambda s: {**s, "query": _without(s["query"], "objects")}, "objects",
    ),
    "a label that is not a str": (lambda s: _query(s, actions=[1]), "actions"),
    "no algorithm": (lambda s: _without(s, "algorithm"), "algorithm"),
    "a float override": (
        lambda s: {**s, "k_crit_overrides": {"faucet": 3.7}}, "k_crit_overrides",
    ),
    "a bool override": (
        lambda s: {**s, "k_crit_overrides": {"faucet": True}}, "k_crit_overrides",
    ),
    "overrides as a list": (
        lambda s: {**s, "k_crit_overrides": [3]}, "k_crit_overrides",
    ),
    "a query that is a list": (lambda s: {**s, "query": [1]}, r"specs\[0\]\.query must"),
    "no query": (lambda s: _without(s, "query"), "query"),
    "a compound query without clauses": (
        lambda s: {**s, "query": {"type": "compound"}}, "clauses",
    ),
    "a clause that is not a list": (
        lambda s: {**s, "query": {"type": "compound", "clauses": [1]}},
        "clauses",
    ),
    "a literal that is not a mapping": (
        lambda s: {**s, "query": {"type": "compound", "clauses": [[1]]}},
        r"clauses\[0\]\[0\] must",
    ),
    "an unknown key": (lambda s: {**s, "priority": 1}, "priority"),
    "a spec that is a list": (lambda s: [s], r"specs\[0\] must"),
}


def resume_service(bundle):
    QueryService.resume(bundle, {"cam": VIDEO}, default_zoo(seed=3), clip_batch=4)


@pytest.mark.parametrize("door", ["fleet", "service"])
@pytest.mark.parametrize("case", REFUSED_SPECS)
def test_bundle_with_a_malformed_spec_is_refused(case, door):
    damage, named = REFUSED_SPECS[case]
    if door == "fleet":
        bundle = fleet = fleet_state()
        load = load_fleet
    else:
        bundle = service_bundle()
        fleet = bundle["streams"]["cam"]
        load = resume_service
    assert fleet["specs"][0]["name"] == "a"
    fleet["specs"][0] = damage(fleet["specs"][0])
    with pytest.raises(ConfigurationError, match=named):
        load(bundle)


# -- session entries nobody wrote ------------------------------------------------------
#
# What a session resumes from decides what it answers: ``"positive": "no"``
# used to load as a positive pending clip (and the resumed run answered
# other sequences), ``"degraded_clips": "12"`` as clips 1 and 2,
# ``"clip_index": 3.7`` as 3 (the probe cadence moved); the rest raised
# ``TypeError`` / ``KeyError`` / ``ValueError`` / ``AttributeError``.


def _pending(session, **changes):
    return {**session, "pending": {**session["pending"], **changes}}


def _outcome(session, at, **changes):
    outcomes = [dict(o) for o in session["pending"]["outcomes"]]
    outcomes[at].update(changes)
    return _pending(session, outcomes=outcomes)


#: case -> (what it does to a session's state, the field the error names)
REFUSED_SESSIONS = {
    "pending positive as a string": (lambda s: _pending(s, positive="no"), "positive"),
    "pending as a list": (lambda s: {**s, "pending": [1, 2]}, "pending"),
    "pending without clip_id": (
        lambda s: {**s, "pending": _without(s["pending"], "clip_id")}, "pending",
    ),
    "pending clip_id as a bool": (lambda s: _pending(s, clip_id=True), "clip_id"),
    "outcomes as a string": (lambda s: _pending(s, outcomes="car"), "outcomes"),
    "outcomes keyed by label": (
        lambda s: _pending(
            s, outcomes={o["label"]: o for o in s["pending"]["outcomes"]}
        ),
        "outcomes",
    ),
    "an outcome short of a field": (
        lambda s: _pending(
            s,
            outcomes=[_without(o, "degraded") for o in s["pending"]["outcomes"]],
        ),
        "outcome",
    ),
    "a float count": (lambda s: _outcome(s, 0, count=3.7), "count"),
    "evaluated as an int": (lambda s: _outcome(s, 0, evaluated=1), "evaluated"),
    "a label the query does not have": (
        lambda s: _outcome(s, 0, label="zebra"), "outcomes",
    ),
    "a label under the other kind": (
        lambda s: _outcome(s, 0, kind="action"), "outcomes",
    ),
    "a label short": (
        lambda s: _pending(s, outcomes=s["pending"]["outcomes"][:1]), "outcomes",
    ),
    "a clause value short": (
        lambda s: _pending(s, clause_values=s["pending"]["clause_values"][:1]),
        "clause_values",
    ),
    "a clause value as an int": (
        lambda s: _pending(s, clause_values=[1, 0]), "clause_values",
    ),
    "held for a label the query does not have": (
        lambda s: {**s, "held": {"zebra": [1, 2]}}, "held",
    ),
    "held as a bare count": (lambda s: {**s, "held": {"faucet": 5}}, "held"),
    "held as a float and a string": (
        lambda s: {**s, "held": {"faucet": [3.7, "x"]}}, "held",
    ),
    "held as a list": (lambda s: {**s, "held": [1, 2]}, "held"),
    "degraded_clips as a string": (
        lambda s: {**s, "degraded_clips": "12"}, "degraded_clips",
    ),
    "a float degraded clip": (
        lambda s: {**s, "degraded_clips": [3.7]}, "degraded_clips",
    ),
    "a float clip_index": (lambda s: {**s, "clip_index": 3.7}, "clip_index"),
    "a negative clip_index": (lambda s: {**s, "clip_index": -4}, "clip_index"),
    "prev_positive as a string": (
        lambda s: {**s, "prev_positive": "no"}, "prev_positive",
    ),
    "a trace of strings": (lambda s: {**s, "trace": ["x"]}, "trace"),
    "a float critical value in the trace": (
        lambda s: {**s, "trace": [{"faucet": 3.7}]}, "trace",
    ),
}


@pytest.mark.parametrize("door", ["session", "fleet", "service"])
@pytest.mark.parametrize("case", REFUSED_SESSIONS)
def test_checkpoint_with_a_malformed_session_entry_is_refused(case, door):
    damage, named = REFUSED_SESSIONS[case]
    if door == "session":
        sessions = {"a": session_state()}
        load = lambda: load_session(sessions["a"])  # noqa: E731
    elif door == "fleet":
        bundle = fleet_state()
        sessions = bundle["sessions"]
        load = lambda: load_fleet(bundle)  # noqa: E731
    else:
        bundle = service_bundle()
        sessions = bundle["streams"]["cam"]["sessions"]
        load = lambda: resume_service(bundle)  # noqa: E731
    assert sessions["a"]["pending"] is not None
    sessions["a"] = damage(sessions["a"])
    with pytest.raises(ConfigurationError, match=named):
        load()


def test_fleet_bundle_carrying_an_older_session_is_refused():
    """The fleet and service versions did not move with the session's: a
    bundle written before it did is refused by the session check."""
    state = fleet_state()
    state["sessions"]["a"]["version"] = CHECKPOINT_VERSION - 1
    with pytest.raises(
        ConfigurationError,
        match=rf"sessions\.a\.version must be {CHECKPOINT_VERSION}; got {CHECKPOINT_VERSION - 1}",
    ):
        load_fleet(state)


# -- bundle fields nobody wrote -------------------------------------------------------
#
# A bundle's own fields say where the resumed stream stands and which names
# stay reserved.  ``"position": 37.9`` / ``"37"`` / ``True`` used to load as
# 37, 37 and 1 (and ``-5`` as is); ``"retired": "q0"`` reserved ``"q"`` and
# ``"0"``, so the next bare registration took a delivered result's name; a
# rate-book group ``"ab"`` listed the members ``"a"`` and ``"b"``; a missing
# field raised ``KeyError``, ``"streams": "x"`` ``ValueError``, and
# ``"registry": []`` dropped the book of record; a v1 bundle whose registry
# was emptied resumed, and its first step raised "no query 'q0' registered".


def _set(**fields):
    return lambda payload: payload.update(fields)


def _drop(*path):
    def damage(payload):
        for key in path[:-1]:
            payload = payload[key]
        del payload[path[-1]]

    return damage


#: case -> (what it damages: the fleet bundle, also inside a service bundle,
#: or the service bundle itself; the damage; the field the error names)
REFUSED_FIELDS = {
    "a float position": ("fleet", _set(position=37.9), "position"),
    "a string position": ("fleet", _set(position="37"), "position"),
    "a bool position": ("fleet", _set(position=True), "position"),
    "a negative position": ("fleet", _set(position=-5), "position"),
    "a float auto_counter": ("fleet", _set(auto_counter=2.5), "auto_counter"),
    "a float chunk_clips": ("fleet", _set(chunk_clips=64.5), "chunk_clips"),
    "retired as a string": ("fleet", _set(retired="q0"), "retired"),
    "retired ints": ("fleet", _set(retired=[1, 2]), "retired"),
    "a rate-book group as a string": (
        "fleet", _set(rate_book={"groups": ["ab"]}), "groups",
    ),
    "a rate-book member that is not a str": (
        "fleet", _set(rate_book={"groups": [[1]]}), r"groups\[0\]\[0\]",
    ),
    "rate_book as a string": ("fleet", _set(rate_book="x"), "rate_book"),
    "no position": ("fleet", _drop("position"), "position"),
    "no retired": ("fleet", _drop("retired"), "retired"),
    "no session for a live query": (
        "fleet", _drop("sessions", "a"), "no session for live query 'a'",
    ),
    "a session without clip_index": (
        "fleet", _drop("sessions", "a", "clip_index"), "clip_index",
    ),
    "a session without held": ("fleet", _drop("sessions", "a", "held"), "held"),
    "no streams": ("service", _drop("streams"), "streams"),
    "streams as a string": ("service", _set(streams="x"), "streams"),
    "tenants as a list": ("service", _set(tenants=[]), "tenants"),
    "no tenant for a live query": (
        "service", _set(tenants={}), r"service bundle\.tenants",
    ),
    "version as a bool": ("service", _set(version=True), "version"),
}


@pytest.mark.parametrize(
    "case, door",
    [
        (case, door)
        for case, (scope, *_) in REFUSED_FIELDS.items()
        for door in (("fleet", "service") if scope == "fleet" else ("service",))
    ],
)
def test_a_bundle_field_nobody_wrote_is_refused(case, door):
    scope, damage, named = REFUSED_FIELDS[case]
    if door == "fleet":
        bundle = fleet = fleet_state(stop_clip=37)
        load = load_fleet
    else:
        bundle = service_bundle()
        fleet = bundle["streams"]["cam"]
        load = resume_service
    damage(fleet if scope == "fleet" else bundle)
    with pytest.raises(ConfigurationError, match=named):
        load(bundle)


# -- rate groups the source fleet could not have had ----------------------------------
#
# The members of a restored rate group share one series, so they must be
# what the source fleet would have grouped: one spec but for the name, one
# session checkpoint, each name in one group.  The first two cases loaded
# and then answered differently from the uninterrupted run.

CNF_TWIN = CompoundQuery(((Query(objects=["faucet"]),), (Query(action="washing dishes"),)))

#: case -> (clip "b" registers at, its query, the claimed groups, the group
#: the error names)
REGROUPED = {
    "one query registered at clip 0 and at clip 10": (
        10, QUERY, [["a", "b"]], 0,
    ),
    "a CNF over the same labels beside the conjunction": (
        0, CNF_TWIN, [["a", "b"]], 0,
    ),
    "a name in two groups": (0, QUERY, [["a", "b"], ["b"]], 1),
    "a name twice in one group": (0, QUERY, [["a", "a"]], 0),
    "a query that is not live": (0, QUERY, [["a", "b", "z"]], 0),
}


@pytest.mark.parametrize("case", list(REGROUPED))
def test_a_regrouped_fleet_bundle_is_refused(case):
    late, query, groups, named = REGROUPED[case]
    fleet = FleetRun(default_zoo(seed=3), VIDEO, queries=[QuerySpec("a", QUERY)])
    clips = ClipStream(VIDEO.meta)
    fleet.advance([clips.next() for _ in range(late)])
    fleet.register(QuerySpec("b", query))
    fleet.advance([clips.next() for _ in range(20 - late)])
    state = json.loads(json.dumps(fleet.state_dict()))
    load_fleet(json.loads(json.dumps(state)))  # as written, it loads
    state["rate_book"]["groups"] = groups
    with pytest.raises(
        ConfigurationError, match=rf"rate_book\.groups\[{named}\] joins"
    ):
        load_fleet(state)


# -- loaders read exactly what their writers write -------------------------------------


def test_assembler_checkpoint_without_finished_is_refused():
    from repro.core.sequences import SequenceAssembler

    state = SequenceAssembler().state_dict()
    assert SequenceAssembler.from_state_dict(dict(state)).state_dict() == state
    del state["finished"]
    with pytest.raises(ConfigurationError, match="finished"):
        SequenceAssembler.from_state_dict(state)


def test_rate_book_checkpoint_without_groups_is_refused():
    from repro.core.ratebook import SharedRateBook

    SharedRateBook().load_state_dict(SharedRateBook().state_dict(), {})
    with pytest.raises(ConfigurationError, match="groups"):
        SharedRateBook().load_state_dict({}, {})
    state = fleet_state()
    state["rate_book"] = {}
    with pytest.raises(ConfigurationError, match="groups"):
        load_fleet(state)


def test_estimator_checkpoint_with_a_null_prior_mass_is_refused():
    from repro.scanstats.kernel import KernelRateEstimator

    state = KernelRateEstimator(bandwidth=50.0).state_dict()
    assert KernelRateEstimator.from_state_dict(state).state_dict() == state
    with pytest.raises(ConfigurationError, match="prior_mass"):
        KernelRateEstimator.from_state_dict({**state, "prior_mass": None})
