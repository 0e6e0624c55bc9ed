"""The adaptive background-probability estimator behind SVAQD (§3.3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScanStatisticsError
from tests.reference.kernel_scalar import ScalarKernelRateEstimator


def feed_constant(est: ScalarKernelRateEstimator, p: float, n: int, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    for event in rng.random(n) < p:
        est.observe(bool(event))


class TestConvergence:
    @pytest.mark.parametrize("true_p", [0.005, 0.05, 0.3])
    def test_converges_to_constant_rate(self, true_p):
        est = ScalarKernelRateEstimator(bandwidth=500.0, initial_p=1e-4)
        feed_constant(est, true_p, 5_000)
        assert est.rate == pytest.approx(true_p, rel=0.35)

    def test_initial_p_returned_before_data(self):
        est = ScalarKernelRateEstimator(bandwidth=100.0, initial_p=0.01)
        assert est.rate == pytest.approx(0.01)

    def test_prior_fades(self):
        # Wildly wrong prior must stop mattering after ~a bandwidth.
        est = ScalarKernelRateEstimator(bandwidth=300.0, initial_p=0.5)
        feed_constant(est, 0.02, 3_000)
        assert est.rate < 0.06

    def test_unbiased_edge_correction(self):
        # E[raw_rate] = p even very early in the stream: average many
        # replications of a short prefix.
        estimates = []
        for seed in range(200):
            est = ScalarKernelRateEstimator(bandwidth=200.0, initial_p=1e-4)
            feed_constant(est, 0.1, 40, seed=seed)
            estimates.append(est.raw_rate)
        assert float(np.mean(estimates)) == pytest.approx(0.1, rel=0.15)


class TestAdaptation:
    def test_tracks_level_shift(self):
        est = ScalarKernelRateEstimator(bandwidth=300.0, initial_p=1e-3)
        feed_constant(est, 0.02, 2_000, seed=1)
        before = est.rate
        feed_constant(est, 0.3, 2_000, seed=2)
        after = est.rate
        assert before < 0.05
        assert after > 0.2

    def test_recovers_after_shift(self):
        est = ScalarKernelRateEstimator(bandwidth=300.0, initial_p=1e-3)
        feed_constant(est, 0.3, 1_500, seed=3)
        feed_constant(est, 0.02, 3_000, seed=4)
        assert est.rate < 0.06


class TestBatchFolding:
    def test_batch_matches_per_unit_to_first_order(self):
        per_unit = ScalarKernelRateEstimator(bandwidth=400.0, initial_p=1e-3)
        batched = ScalarKernelRateEstimator(bandwidth=400.0, initial_p=1e-3)
        rng = np.random.default_rng(5)
        for _ in range(300):
            clip = rng.random(10) < 0.05
            for event in clip:
                per_unit.observe(bool(event))
            batched.observe_batch(int(clip.sum()), 10)
        assert batched.rate == pytest.approx(per_unit.rate, rel=0.1)

    def test_invalid_batch(self):
        est = ScalarKernelRateEstimator(bandwidth=100.0)
        with pytest.raises(ScanStatisticsError):
            est.observe_batch(5, 3)
        with pytest.raises(ScanStatisticsError):
            est.observe_batch(-1, 3)

    def test_empty_batch_noop(self):
        est = ScalarKernelRateEstimator(bandwidth=100.0, initial_p=0.01)
        before = est.rate
        assert est.observe_batch(0, 0) == before


class TestAdvance:
    def test_preserves_raw_rate_exactly(self):
        est = ScalarKernelRateEstimator(bandwidth=250.0, initial_p=1e-3)
        feed_constant(est, 0.05, 1_000, seed=6)
        before = est.raw_rate
        est.advance(400)
        assert est.raw_rate == pytest.approx(before, rel=1e-9)

    def test_advances_clock(self):
        est = ScalarKernelRateEstimator(bandwidth=250.0, initial_p=1e-3)
        feed_constant(est, 0.05, 100, seed=7)
        t = est.time
        est.advance(50)
        assert est.time == t + 50

    def test_noop_before_data(self):
        est = ScalarKernelRateEstimator(bandwidth=250.0, initial_p=0.01)
        est.advance(100)
        assert est.time == 0
        assert est.rate == pytest.approx(0.01)

    def test_negative_rejected(self):
        est = ScalarKernelRateEstimator(bandwidth=250.0)
        with pytest.raises(ScanStatisticsError):
            est.advance(-1)


class TestClampsAndReset:
    def test_rate_clamped(self):
        est = ScalarKernelRateEstimator(
            bandwidth=50.0, initial_p=0.5, p_floor=0.01, p_ceil=0.6
        )
        for _ in range(2_000):
            est.observe(True)
        assert est.rate <= 0.6
        est.reset(initial_p=0.02)
        for _ in range(2_000):
            est.observe(False)
        assert est.rate >= 0.01

    def test_reset_clears_state(self):
        est = ScalarKernelRateEstimator(bandwidth=100.0, initial_p=0.01)
        feed_constant(est, 0.2, 500)
        est.reset()
        assert est.time == 0
        assert est.event_count == 0
        assert est.rate == pytest.approx(0.01)

    def test_invalid_construction(self):
        with pytest.raises(Exception):
            ScalarKernelRateEstimator(bandwidth=0.0)
        with pytest.raises(ScanStatisticsError):
            ScalarKernelRateEstimator(bandwidth=10.0, initial_p=0.0)
        with pytest.raises(ScanStatisticsError):
            ScalarKernelRateEstimator(bandwidth=10.0, p_floor=0.5, p_ceil=0.4)

    def test_paper_normalisation_close_to_raw(self):
        # 1/u vs 1 - e^(-1/u): agree to O(1/u^2) for large bandwidths.
        est = ScalarKernelRateEstimator(bandwidth=1_000.0, initial_p=1e-3)
        feed_constant(est, 0.05, 3_000, seed=8)
        assert est.paper_normalised() == pytest.approx(est.raw_rate, rel=0.01)


class TestPropertyInvariants:
    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_rate_always_clamped(self, events):
        est = ScalarKernelRateEstimator(bandwidth=50.0, initial_p=0.01)
        for event in events:
            rate = est.observe(event)
            assert est.p_floor <= rate <= est.p_ceil

    @given(st.integers(1, 50), st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_event_count_tracked(self, n_batches, events_per_batch):
        est = ScalarKernelRateEstimator(bandwidth=100.0)
        events = min(events_per_batch, 10)
        for _ in range(n_batches):
            est.observe_batch(events, 10)
        assert est.event_count == n_batches * events
        assert est.time == n_batches * 10
