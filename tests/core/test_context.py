"""Per-stage execution accounting through the unified session pipeline."""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext, ExecutionStats
from repro.core.engine import OnlineEngine
from repro.core.query import CompoundQuery, Query
from repro.errors import ConfigurationError
from tests.conftest import drive_session, make_kitchen_video

VIDEO = make_kitchen_video(seed=41, duration_s=300.0, video_id="ctxvid")
# "oven" rarely co-occurs with washing dishes, so most clips short-circuit
# before the remaining predicates are touched.
SELECTIVE_QUERY = Query(
    objects=["oven", "faucet"], action="washing dishes"
)


class TestResultStats:
    def test_stats_attached_to_result(self, zoo):
        result = OnlineEngine(zoo, OnlineConfig()).run(SELECTIVE_QUERY, VIDEO)
        stats = result.stats
        assert stats is not None
        assert stats.clips_processed == VIDEO.meta.n_clips
        assert stats.model_invocations > 0
        assert stats.model_invocations == (
            stats.detector_invocations + stats.recognizer_invocations
        )

    def test_short_circuit_skips_are_visible(self, zoo):
        result = OnlineEngine(zoo, OnlineConfig()).run(SELECTIVE_QUERY, VIDEO)
        assert result.stats.predicates_skipped > 0
        assert 0.0 < result.stats.short_circuit_savings < 1.0

    def test_no_short_circuit_means_no_skips(self, zoo):
        result = drive_session(zoo, SELECTIVE_QUERY, VIDEO, OnlineConfig(), short_circuit=False)
        assert result.stats.predicates_skipped == 0
        assert result.stats.short_circuit_savings == 0.0

    def test_stage_wall_times_recorded(self, zoo):
        result = OnlineEngine(zoo, OnlineConfig()).run(SELECTIVE_QUERY, VIDEO)
        stages = result.stats.stage_wall_s
        assert {"evaluate", "quotas", "assemble"} <= set(stages)
        assert all(seconds >= 0.0 for seconds in stages.values())

    def test_compound_results_carry_stats(self, zoo):
        compound = CompoundQuery.disjunction(
            [Query(action="washing dishes"), Query(objects=["faucet"])]
        )
        result = OnlineEngine(zoo, OnlineConfig()).run(compound, VIDEO)
        assert result.stats is not None
        assert result.stats.clips_processed == VIDEO.meta.n_clips
        assert result.stats.model_invocations > 0


class TestPolicyCounters:
    def test_dynamic_runs_probe_and_refresh(self, zoo):
        result = OnlineEngine(zoo, OnlineConfig()).run(SELECTIVE_QUERY, VIDEO)
        assert result.stats.probe_clips > 0
        assert result.stats.quota_refreshes == VIDEO.meta.n_clips

    def test_static_runs_never_probe_or_refresh(self, zoo):
        result = OnlineEngine(zoo, OnlineConfig()).run(SELECTIVE_QUERY, VIDEO, "svaq")
        assert result.stats.probe_clips == 0
        assert result.stats.quota_refreshes == 0


class TestSharedContext:
    def test_shared_context_accumulates_across_runs(self, zoo):
        context = ExecutionContext()
        OnlineEngine(zoo, OnlineConfig()).run(SELECTIVE_QUERY, VIDEO, context=context)
        after_one = context.clips_processed
        OnlineEngine(zoo, OnlineConfig()).run(SELECTIVE_QUERY, VIDEO, context=context)
        assert after_one == VIDEO.meta.n_clips
        assert context.clips_processed == 2 * after_one

    def test_merge_sums_counters_and_stage_times(self):
        a, b = ExecutionContext(), ExecutionContext()
        a.clips_processed = 3
        a.record_model_call("object", 2)
        a.add_stage_time("evaluate", 0.5)
        b.clips_processed = 4
        b.record_model_call("action", 1)
        b.add_stage_time("evaluate", 0.25)
        a.merge(b)
        assert a.clips_processed == 7
        assert a.detector_invocations == 2
        assert a.recognizer_invocations == 1
        assert a.snapshot().stage_wall_s["evaluate"] == pytest.approx(0.75)

    def test_snapshot_is_frozen_copy(self):
        context = ExecutionContext()
        context.clips_processed = 5
        stats = context.snapshot()
        context.clips_processed = 9
        assert stats.clips_processed == 5
        assert stats.as_dict()["clips_processed"] == 5


class TestCacheHitCounters:
    def test_cached_calls_count_as_invocations_and_hits(self):
        context = ExecutionContext()
        context.record_model_call("object", 3)
        context.record_model_call("object", 2, cached=True)
        context.record_model_call("action", 1, cached=True)
        stats = context.snapshot()
        assert stats.detector_invocations == 5
        assert stats.detector_cache_hits == 2
        assert stats.recognizer_cache_hits == 1
        assert stats.cache_hits == 3
        assert stats.cache_hit_rate == pytest.approx(3 / 6)

    def test_merge_carries_hit_counters(self):
        a, b = ExecutionContext(), ExecutionContext()
        b.record_model_call("object", 4, cached=True)
        a.merge(b)
        assert a.detector_cache_hits == 4
        assert a.snapshot().as_dict()["detector_cache_hits"] == 4

    def test_summary_surfaces_cache_and_fresh_lines(self):
        context = ExecutionContext()
        context.clips_processed = 2
        context.record_model_call("object", 3)
        context.record_model_call("object", 1, cached=True)
        context.add_stage_time("evaluate", 0.002)
        text = context.snapshot().summary()
        assert "execution stats:" in text
        assert "cache hits           : 1" in text
        assert "hit rate 25.0%" in text
        assert "fresh model calls    : 3" in text
        assert "stage evaluate" in text


# -- the counters are listed once ------------------------------------------------
#
# Parametrised over ``dataclasses.fields(ExecutionStats)``, so a counter
# declared tomorrow is covered the day it is declared.

STATS_FIELDS = dataclasses.fields(ExecutionStats)


def _distinct_value(field: dataclasses.Field):
    """A value no other field carries (its 1-based position)."""
    position = STATS_FIELDS.index(field) + 1
    if field.name == "stage_wall_s":
        return {"evaluate": position / 4, "quotas": position / 8}
    return position


def _doubled(value):
    if isinstance(value, dict):
        return {stage: 2 * seconds for stage, seconds in value.items()}
    return 2 * value


def test_context_and_snapshot_declare_the_same_counters():
    """The one listing the loops read is ``ExecutionStats``' fields; the
    mutable context has to re-declare them (a frozen dataclass shares no
    base with a mutable one), so the two lists are pinned equal here."""

    def declared(cls):
        *counters, stages = dataclasses.fields(cls)
        return [(f.name, f.type, f.default) for f in counters], stages.name

    counters, stages = declared(ExecutionStats)
    assert declared(ExecutionContext) == (counters, "_" + stages)
    assert stages == "stage_wall_s"
    assert {(kind, default) for _, kind, default in counters} == {("int", 0)}


@pytest.mark.parametrize("field", STATS_FIELDS, ids=lambda f: f.name)
def test_every_field_survives_the_whole_round_trip(field):
    value = _distinct_value(field)
    stats = ExecutionStats(**{field.name: value})
    payload = stats.as_dict()
    assert payload[field.name] == value  # under its own name

    wire = json.loads(json.dumps(payload, allow_nan=False))
    restored = ExecutionStats.from_dict(wire)
    assert restored == stats

    context = ExecutionContext()
    context.load_snapshot(restored)
    assert context.snapshot() == stats
    merged = copy.deepcopy(context)
    merged.merge(context)
    assert getattr(merged.snapshot(), field.name) == _doubled(value)
    untouched = {f.name for f in STATS_FIELDS} - {field.name}
    assert all(
        getattr(merged.snapshot(), name) == getattr(ExecutionStats(), name)
        for name in untouched
    )


def _written():
    """What ``as_dict`` writes for a run that did something."""
    return ExecutionStats(
        **{f.name: _distinct_value(f) for f in STATS_FIELDS}
    ).as_dict()


def _without(key):
    payload = _written()
    del payload[key]
    return payload


REFUSED = {
    "a string counter": {**_written(), "clips_processed": "x"},
    "a list counter": {**_written(), "clips_processed": [1]},
    "a float counter": {**_written(), "probe_clips": 3.7},
    "a whole float counter": {**_written(), "probe_clips": 3.0},
    "a bool counter": {**_written(), "quota_refreshes": True},
    "a negative counter": {**_written(), "sequences_emitted": -5},
    "a null counter": {**_written(), "model_giveups": None},
    "a dropped counter": _without("sequences_degraded"),
    "a payload that is a list": [1, 2],
    "a payload that is null": None,
    "no stage times": _without("stage_wall_s"),
    "stage times as a list": {**_written(), "stage_wall_s": [1]},
    "a string stage time": {**_written(), "stage_wall_s": {"evaluate": "fast"}},
    "a NaN stage time": {**_written(), "stage_wall_s": {"evaluate": float("nan")}},
    "an infinite stage time": {**_written(), "stage_wall_s": {"evaluate": float("inf")}},
    "a negative stage time": {**_written(), "stage_wall_s": {"evaluate": -0.1}},
    "a bool stage time": {**_written(), "stage_wall_s": {"evaluate": True}},
}

#: the key the error has to name
NAMED = {
    "a payload that is a list": "execution stats must",
    "a payload that is null": "execution stats must",
    "no stage times": "stage_wall_s",
    "a dropped counter": "sequences_degraded",
    "a null counter": "model_giveups",
}


@pytest.mark.parametrize("case", REFUSED)
def test_from_dict_accepts_exactly_what_as_dict_writes(case):
    """A fleet bundle's ``contexts`` travel over the wire: anything
    ``as_dict`` would not have written is a taxonomy error naming the key —
    never a ``TypeError``/``AttributeError``, a truncated float, a negative
    count or a counter silently restarted at zero."""
    payload = REFUSED[case]
    changed = NAMED.get(case) or next(
        key for key, value in payload.items() if value != _written()[key]
    )
    with pytest.raises(ConfigurationError, match=changed):
        ExecutionStats.from_dict(payload)


def test_from_dict_recomputes_the_derived_ratios():
    """A fleet bundle's ``contexts`` travel: the derived ratios are read as
    declared and recomputed, not trusted, and whole-number stage seconds
    (hand-written JSON) come back as floats.  A key ``as_dict`` does not
    write is refused."""
    payload = {**_written(), "cache_hit_rate": 0.99, "short_circuit_savings": 0.5}
    assert ExecutionStats.from_dict(payload).as_dict() == _written()
    stats = ExecutionStats.from_dict({**_written(), "stage_wall_s": {"a": 2}})
    assert stats.stage_wall_s == {"a": 2.0}
    assert type(stats.stage_wall_s["a"]) is float
    with pytest.raises(ConfigurationError, match="execution stats"):
        ExecutionStats.from_dict({**_written(), "algorithm": "svaqd"})
