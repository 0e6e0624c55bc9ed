"""Graceful degradation under injected faults: the engine must finish,
flag what it weakened, and stay bit-identical when faults are off."""

from __future__ import annotations

import pickle

import pytest

from repro.core.compound import CompoundOnline
from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext, ExecutionStats
from repro.core.dynamics import QuotaManager
from repro.core.indicators import PredicateOutcome
from repro.core.query import CompoundQuery, Query
from repro.core.results import degraded_sequence_spans
from repro.core.svaq import SVAQ
from repro.core.svaqd import SVAQD
from repro.detectors.cost import CostMeter
from repro.detectors.faults import FaultProfile, faulty_zoo
from repro.detectors.zoo import default_zoo
from repro.errors import ModelGaveUpError
from repro.utils.intervals import IntervalSet

from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=43, duration_s=240.0, video_id="chaosvid")
QUERY = Query(objects=["faucet"], action="washing dishes")

FLAKY = FaultProfile(
    name="flaky-test", transient_rate=0.10, timeout_rate=0.05,
    nan_rate=0.03, seed=17,
)
DEAD_FAUCET = FaultProfile(name="dead", dead_labels=("faucet",), seed=17)


def run(algorithm, zoo, config, query=QUERY, context=None):
    return algorithm(zoo, query, config).run(VIDEO, context=context)


class TestArmedButFaultlessEquivalence:
    """Arming retries with a clean zoo must not change a single bit."""

    @pytest.mark.parametrize("algo", [SVAQ, SVAQD])
    @pytest.mark.parametrize("cache", [True, False])
    def test_results_identical(self, algo, cache):
        base_cfg = OnlineConfig(cache_detections=cache)
        armed_cfg = OnlineConfig(
            cache_detections=cache, retry_max_attempts=3,
            failure_policy="skip_predicate",
        )
        baseline = run(algo, default_zoo(seed=2), base_cfg)
        armed = run(algo, default_zoo(seed=2), armed_cfg)
        assert armed.sequences == baseline.sequences
        assert armed.evaluations == baseline.evaluations
        assert armed.degraded_clips == ()
        assert armed.degraded_sequences == ()
        assert armed.stats.model_retries == 0
        assert armed.stats.model_giveups == 0

    def test_meter_totals_identical(self):
        meters = []
        for cfg in (
            OnlineConfig(cache_detections=False),
            OnlineConfig(cache_detections=False, retry_max_attempts=3),
        ):
            zoo = default_zoo(seed=2)
            run(SVAQD, zoo, cfg)
            meters.append(zoo.cost_meter)
        assert meters[0].ms() == meters[1].ms()
        assert meters[0].units() == meters[1].units()


class TestRetriesAbsorbTransientFaults:
    def test_flaky_run_completes_and_accounts_retries(self):
        config = OnlineConfig(
            cache_detections=False, retry_max_attempts=6,
            failure_policy="hold_last_estimate",
        )
        zoo = faulty_zoo(default_zoo(seed=2), FLAKY)
        context = ExecutionContext()
        result = run(SVAQD, zoo, config, context=context)
        stats = context.snapshot()
        assert zoo.detector.injected_faults > 0
        assert stats.model_retries > 0
        assert stats.model_timeouts > 0
        assert zoo.cost_meter.retries() == stats.model_retries
        assert result.sequences is not None

    def test_enough_retries_reproduce_clean_sequences(self):
        """With a deep retry budget every transient fault is absorbed, so
        the sequences match the fault-free run exactly."""
        clean = run(
            SVAQD, default_zoo(seed=2), OnlineConfig(cache_detections=False)
        )
        config = OnlineConfig(
            cache_detections=False, retry_max_attempts=12,
            failure_policy="fail_clip",
        )
        faulty = run(SVAQD, faulty_zoo(default_zoo(seed=2), FLAKY), config)
        assert faulty.sequences == clean.sequences


class TestDegradationPolicies:
    def test_fail_clip_raises_after_exhaustion(self):
        config = OnlineConfig(cache_detections=False, retry_max_attempts=2)
        zoo = faulty_zoo(default_zoo(seed=2), DEAD_FAUCET)
        with pytest.raises(ModelGaveUpError):
            run(SVAQD, zoo, config)

    def test_skip_predicate_completes_and_flags(self):
        config = OnlineConfig(
            cache_detections=False, retry_max_attempts=2,
            failure_policy="skip_predicate",
        )
        zoo = faulty_zoo(default_zoo(seed=2), DEAD_FAUCET)
        context = ExecutionContext()
        result = run(SVAQD, zoo, config, context=context)
        stats = context.snapshot()
        assert stats.model_giveups > 0
        assert stats.predicates_degraded > 0
        assert stats.clips_degraded == len(result.degraded_clips) > 0
        # the dead predicate is excluded, so the action alone decides
        action_only = run(
            SVAQD, default_zoo(seed=2),
            OnlineConfig(cache_detections=False),
            query=Query(actions=["washing dishes"]),
        )
        assert result.sequences == action_only.sequences

    def test_degraded_sequences_flagged(self):
        config = OnlineConfig(
            cache_detections=False, retry_max_attempts=2,
            failure_policy="skip_predicate",
        )
        zoo = faulty_zoo(default_zoo(seed=2), DEAD_FAUCET)
        context = ExecutionContext()
        result = run(SVAQD, zoo, config, context=context)
        # every emitted sequence was decided with a degraded predicate
        assert result.degraded_sequences == tuple(result.sequences)
        assert context.snapshot().sequences_degraded == len(
            result.degraded_sequences
        )

    def test_hold_without_history_falls_back_to_skip(self):
        config = OnlineConfig(
            cache_detections=False, retry_max_attempts=2,
            failure_policy="hold_last_estimate",
        )
        zoo = faulty_zoo(default_zoo(seed=2), DEAD_FAUCET)
        result = run(SVAQD, zoo, config)
        first = result.evaluations[0].outcome("faucet")
        assert first.degraded and not first.evaluated and first.indicator

    def test_hold_replays_last_good_counts(self):
        """Once the predicate has answered at least once, holds carry its
        counts forward as evaluated outcomes."""
        profile = FaultProfile(name="mostly-dead", transient_rate=0.7, seed=3)
        config = OnlineConfig(
            cache_detections=False, retry_max_attempts=1,
            failure_policy="hold_last_estimate",
        )
        zoo = faulty_zoo(default_zoo(seed=2), profile)
        result = run(SVAQD, zoo, config)
        held = [
            ev.outcome("faucet")
            for ev in result.evaluations
            if any(
                o.label == "faucet" and o.degraded and o.evaluated
                for o in ev.outcomes
            )
        ]
        assert held, "expected at least one held (evaluated) replay"

    def test_per_label_policy_override(self):
        config = OnlineConfig(
            cache_detections=False, retry_max_attempts=2,
            failure_policy="fail_clip",
            failure_policy_overrides=(("faucet", "skip_predicate"),),
        )
        zoo = faulty_zoo(default_zoo(seed=2), DEAD_FAUCET)
        result = run(SVAQD, zoo, config)  # override saves the run
        assert result.degraded_clips


class TestCompoundDegradation:
    def test_cnf_dead_label_completes(self):
        compound = CompoundQuery.disjunction(
            [
                Query(objects=["faucet"], action="washing dishes"),
                Query(objects=["person"], action="washing dishes"),
            ]
        )
        config = OnlineConfig(
            cache_detections=False, retry_max_attempts=2,
            failure_policy="skip_predicate",
        )
        zoo = faulty_zoo(default_zoo(seed=2), DEAD_FAUCET)
        context = ExecutionContext()
        result = CompoundOnline(zoo, compound, config).run(
            VIDEO, context=context
        )
        assert context.snapshot().model_giveups > 0
        assert result.degraded_clips
        assert result.degraded_sequences == tuple(
            degraded_sequence_spans(result.sequences, result.degraded_clips)
        )


class TestQuotaManagerDegradedOutcomes:
    def test_degraded_outcome_advances_not_observes(self):
        config = OnlineConfig(update_on="all")
        geometry = VIDEO.meta.geometry
        manager = QuotaManager(["faucet"], [], geometry, config)
        rate_before = manager.rates()["faucet"]
        poisoned = PredicateOutcome(
            "faucet", "object", evaluated=True,
            count=geometry.frames_per_clip,  # every frame "positive"
            units=geometry.frames_per_clip, indicator=True, degraded=True,
        )
        for _ in range(20):
            manager.update(
                {"faucet": poisoned}, positive=False, in_guard_band=False
            )
        # a flapping detector's held replays must not drag the estimate up
        assert manager.rates()["faucet"] <= rate_before
        clean = poisoned._replace(degraded=False)
        for _ in range(20):
            manager.update(
                {"faucet": clean}, positive=False, in_guard_band=False
            )
        assert manager.rates()["faucet"] > rate_before


class TestDegradedSequenceSpans:
    def test_only_touched_spans_flagged(self):
        sequences = IntervalSet([(0, 4), (10, 14), (20, 24)])
        spans = degraded_sequence_spans(sequences, (12, 40))
        assert [(s.start, s.end) for s in spans] == [(10, 14)]
        assert degraded_sequence_spans(sequences, ()) == ()


class TestCostMeterRetryAccounting:
    def test_record_and_query(self):
        meter = CostMeter()
        meter.record_retry("det")
        meter.record_retry("det", 2)
        meter.record_giveup("rec")
        assert meter.retries("det") == 3
        assert meter.retries() == 3
        assert meter.giveups("rec") == 1
        assert meter.giveups("det") == 0

    def test_merge_and_reset(self):
        a, b = CostMeter(), CostMeter()
        a.record_retry("det")
        b.record_retry("det", 4)
        b.record_giveup("det")
        a.merge(b)
        assert a.retries("det") == 5 and a.giveups("det") == 1
        a.reset()
        assert a.retries() == 0 and a.giveups() == 0

    def test_pickle_roundtrip_keeps_retry_state(self):
        meter = CostMeter()
        meter.record_retry("det", 7)
        clone = pickle.loads(pickle.dumps(meter))
        assert clone.retries("det") == 7


class TestStatsSummary:
    def test_degraded_block_only_when_nonzero(self):
        assert "degraded" not in ExecutionStats().summary()
        stats = ExecutionStats(
            model_retries=3, model_timeouts=1, model_giveups=2,
            predicates_degraded=2, clips_degraded=2, sequences_degraded=1,
        )
        text = stats.summary()
        assert "model retries" in text and "give-ups" in text
        assert "degraded" in text
