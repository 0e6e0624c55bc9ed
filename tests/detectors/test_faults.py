"""Fault injection (detectors/faults.py) and the retry layer
(detectors/retry.py): deterministic rolls, failure modes, budgets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors.faults import (
    FAULT_PROFILES,
    NO_FAULTS,
    FaultProfile,
    fault_profile,
    faulty_zoo,
)
from repro.detectors.retry import (
    RetryPolicy,
    ensure_finite,
    invoke_with_retry,
)
from repro.detectors.zoo import default_zoo
from repro.errors import (
    ConfigurationError,
    CorruptedOutputError,
    DetectorError,
    ModelExecutionError,
    ModelGaveUpError,
    ModelTimeoutError,
    TransientModelError,
)
from repro.video.model import ClipView

from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=31, duration_s=120.0, video_id="faultvid")


class TestFaultProfile:
    def test_named_profiles_resolve(self):
        for name, profile in FAULT_PROFILES.items():
            assert fault_profile(name) is profile
        assert fault_profile(None) is NO_FAULTS
        assert fault_profile(NO_FAULTS) is NO_FAULTS

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            fault_profile("zalgo")

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            FaultProfile(transient_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultProfile(transient_rate=0.6, timeout_rate=0.5)

    def test_active(self):
        assert not NO_FAULTS.active
        assert FaultProfile(transient_rate=0.1).active
        assert FaultProfile(dead_labels=("faucet",)).active

    def test_with_seed(self):
        assert FAULT_PROFILES["flaky"].with_seed(9).seed == 9
        assert FAULT_PROFILES["flaky"].seed == 0  # original untouched


class TestFaultInjector:
    def profile(self, **kw):
        defaults = dict(name="t", transient_rate=0.3, seed=5)
        defaults.update(kw)
        return FaultProfile(**defaults)

    def test_inactive_profile_returns_zoo_unwrapped(self):
        zoo = default_zoo(seed=1)
        assert faulty_zoo(zoo, NO_FAULTS) is zoo
        assert faulty_zoo(zoo, "none") is zoo

    def test_proxy_forwards_attributes(self):
        zoo = faulty_zoo(default_zoo(seed=1), self.profile())
        inner = zoo.detector.inner
        assert zoo.detector.name == inner.name
        assert zoo.detector.threshold == inner.threshold

    def test_same_seed_same_fault_sequence(self):
        def fates(zoo):
            out = []
            for cid in range(40):
                try:
                    zoo.detector.score_clip(VIDEO.meta, VIDEO.truth, "faucet", cid)
                    out.append("ok")
                except ModelExecutionError as exc:
                    out.append(type(exc).__name__)
            return out

        a = fates(faulty_zoo(default_zoo(seed=1), self.profile()))
        b = fates(faulty_zoo(default_zoo(seed=1), self.profile()))
        assert a == b
        assert "TransientModelError" in a

    def test_retry_rolls_fresh_attempt(self):
        """The same invocation re-attempted draws a new fate, so transient
        faults are actually transient."""
        zoo = faulty_zoo(default_zoo(seed=1), self.profile())
        recovered = 0
        for cid in range(60):
            try:
                zoo.detector.score_clip(VIDEO.meta, VIDEO.truth, "faucet", cid)
            except TransientModelError:
                try:
                    zoo.detector.score_clip(
                        VIDEO.meta, VIDEO.truth, "faucet", cid
                    )
                    recovered += 1
                except ModelExecutionError:
                    pass
        assert recovered > 0

    def test_dead_label_always_fails(self):
        zoo = faulty_zoo(
            default_zoo(seed=1),
            FaultProfile(name="dead", dead_labels=("faucet",), seed=5),
        )
        for _ in range(5):
            with pytest.raises(TransientModelError):
                zoo.detector.score_clip(VIDEO.meta, VIDEO.truth, "faucet", 0)
        # other labels are untouched
        scores = zoo.detector.score_clip(VIDEO.meta, VIDEO.truth, "person", 0)
        assert np.isfinite(scores).all()

    def test_nan_mode_corrupts_a_copy(self):
        zoo = faulty_zoo(
            default_zoo(seed=1),
            FaultProfile(name="nan", nan_rate=0.9, seed=5),
        )
        corrupted = zoo.detector.score_clip(VIDEO.meta, VIDEO.truth, "faucet", 3)
        assert np.isnan(corrupted).any()
        # the wrapped model's memoised arrays must stay pristine
        clean = zoo.detector.inner.score_clip(VIDEO.meta, VIDEO.truth, "faucet", 3)
        assert np.isfinite(clean).all()

    def test_stuck_mode_returns_previous_clip(self):
        zoo = faulty_zoo(
            default_zoo(seed=1),
            FaultProfile(name="stuck", stuck_rate=0.9, seed=5),
        )
        inner = zoo.detector.inner
        stale = zoo.detector.score_clip(VIDEO.meta, VIDEO.truth, "faucet", 7)
        previous = inner.score_clip(VIDEO.meta, VIDEO.truth, "faucet", 6)
        np.testing.assert_array_equal(stale, previous)

    def test_stuck_on_first_clip_degrades_to_clean(self):
        zoo = faulty_zoo(
            default_zoo(seed=1),
            FaultProfile(name="stuck", stuck_rate=0.9, seed=5),
        )
        clean = zoo.detector.inner.score_clip(VIDEO.meta, VIDEO.truth, "faucet", 0)
        np.testing.assert_array_equal(
            zoo.detector.score_clip(VIDEO.meta, VIDEO.truth, "faucet", 0), clean
        )

    def test_tracker_faults(self):
        zoo = faulty_zoo(
            default_zoo(seed=1),
            FaultProfile(name="t", transient_rate=0.5, seed=5),
        )
        saw_fault = saw_ok = False
        for cid in range(20):
            try:
                zoo.tracker.tracks_in_clip(
                    VIDEO.meta, VIDEO.truth, "faucet", ClipView(VIDEO.meta, cid)
                )
                saw_ok = True
            except ModelExecutionError:
                saw_fault = True
        assert saw_fault and saw_ok

    def test_tracker_video_call_is_one_fault_unit(self):
        """``tracks_in_video`` rolls once per attempt of the (video, label)
        call, so re-attempting the same call draws fresh fates."""
        zoo = faulty_zoo(
            default_zoo(seed=1),
            FaultProfile(name="t", transient_rate=0.5, seed=5),
        )
        fates = []
        for _ in range(20):
            try:
                zoo.tracker.tracks_in_video(VIDEO.meta, VIDEO.truth, "faucet")
                fates.append("ok")
            except TransientModelError:
                fates.append("fault")
        assert {"ok", "fault"} == set(fates)
        assert zoo.tracker.injected_faults == fates.count("fault")

    def test_tracker_nan_mode_corrupts_a_copy_of_the_score_column(self):
        zoo = faulty_zoo(
            default_zoo(seed=1),
            FaultProfile(name="nan", nan_rate=0.9, seed=5),
        )
        corrupted = zoo.tracker.tracks_in_video(VIDEO.meta, VIDEO.truth, "faucet")
        clean = zoo.tracker.inner.tracks_in_video(VIDEO.meta, VIDEO.truth, "faucet")
        assert np.isnan(corrupted.scores).any()
        with pytest.raises(CorruptedOutputError):
            ensure_finite(corrupted.scores)
        # the wrapped tracker's memoised columns must stay pristine
        assert np.isfinite(clean.scores).all()
        np.testing.assert_array_equal(corrupted.frames, clean.frames)
        np.testing.assert_array_equal(corrupted.track_ids, clean.track_ids)

    def test_tracker_stuck_video_call_degrades_to_clean(self):
        zoo = faulty_zoo(
            default_zoo(seed=1),
            FaultProfile(name="stuck", stuck_rate=0.9, seed=5),
        )
        stale = zoo.tracker.tracks_in_video(VIDEO.meta, VIDEO.truth, "faucet")
        assert stale is zoo.tracker.inner.tracks_in_video(
            VIDEO.meta, VIDEO.truth, "faucet"
        )

    def test_fault_counts_and_reset(self):
        zoo = faulty_zoo(default_zoo(seed=1), self.profile())
        for cid in range(30):
            try:
                zoo.detector.score_clip(VIDEO.meta, VIDEO.truth, "faucet", cid)
            except ModelExecutionError:
                pass
        assert zoo.detector.injected_faults > 0
        zoo.detector.reset_attempts()
        assert zoo.detector.injected_faults == 0

    def test_shared_cost_meter(self):
        zoo = default_zoo(seed=1)
        wrapped = faulty_zoo(zoo, self.profile())
        assert wrapped.cost_meter is zoo.cost_meter


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline_s=0.0)

    def test_enabled(self):
        assert not RetryPolicy().enabled
        assert RetryPolicy(max_attempts=2).enabled

    def test_backoff_schedule_doubles(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1)
        assert policy.backoff_before(1) == 0.0
        assert policy.backoff_before(2) == pytest.approx(0.1)
        assert policy.backoff_before(3) == pytest.approx(0.2)
        assert policy.backoff_before(4) == pytest.approx(0.4)


class TestEnsureFinite:
    def test_passes_finite(self):
        arr = np.array([0.1, 0.9])
        assert ensure_finite(arr) is arr

    def test_rejects_nan_with_count(self):
        with pytest.raises(CorruptedOutputError, match="2 non-finite"):
            ensure_finite(np.array([np.nan, 1.0, np.inf]), "scores")


class TestInvokeWithRetry:
    def test_success_first_attempt(self):
        assert invoke_with_retry(lambda: 42, RetryPolicy()) == 42

    def test_recovers_within_budget(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientModelError("boom")
            return "ok"

        retried = []
        value = invoke_with_retry(
            flaky,
            RetryPolicy(max_attempts=3),
            on_retry=lambda exc, attempt: retried.append(attempt),
        )
        assert value == "ok"
        assert retried == [1, 2]

    def test_exhaustion_raises_gave_up_with_last_error(self):
        def dead():
            raise TransientModelError("always")

        with pytest.raises(ModelGaveUpError) as info:
            invoke_with_retry(dead, RetryPolicy(max_attempts=2), describe="x")
        assert isinstance(info.value.last_error, TransientModelError)

    def test_single_attempt_policy_gives_up_immediately(self):
        calls = {"n": 0}

        def once():
            calls["n"] += 1
            raise TransientModelError("boom")

        with pytest.raises(ModelGaveUpError):
            invoke_with_retry(once, RetryPolicy())
        assert calls["n"] == 1

    def test_non_model_errors_pass_through(self):
        def bug():
            raise DetectorError("caller bug")

        with pytest.raises(DetectorError):
            invoke_with_retry(bug, RetryPolicy(max_attempts=5))

    def test_validate_runs_inside_loop(self):
        calls = {"n": 0}

        def speckled():
            calls["n"] += 1
            if calls["n"] == 1:
                return np.array([np.nan])
            return np.array([0.5])

        value = invoke_with_retry(
            speckled, RetryPolicy(max_attempts=2), validate=ensure_finite
        )
        assert np.isfinite(value).all()

    def test_deadline_forfeits_remaining_attempts(self):
        ticks = iter([0.0, 100.0])

        def failing():
            raise ModelTimeoutError("slow")

        with pytest.raises(ModelGaveUpError, match="deadline"):
            invoke_with_retry(
                failing,
                RetryPolicy(max_attempts=10, deadline_s=1.0),
                clock=lambda: next(ticks, 200.0),
                sleep=lambda s: None,
            )

    def test_backoff_sleeps_are_scheduled(self):
        slept = []

        def flaky():
            if len(slept) < 2:
                raise TransientModelError("boom")
            return 1

        invoke_with_retry(
            flaky,
            RetryPolicy(max_attempts=3, backoff_s=0.25),
            sleep=slept.append,
        )
        assert slept == [0.25, 0.5]
