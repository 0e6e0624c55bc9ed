"""The FMCE Markov extension (footnote 7)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScanStatisticsError
from repro.scanstats.critical import critical_value
from repro.scanstats.exact import exact_scan_tail
from repro.scanstats.markov import (
    MarkovChainSpec,
    markov_critical_value,
    markov_scan_tail,
)


class TestChainSpec:
    def test_stationary_probability(self):
        chain = MarkovChainSpec(p01=0.1, p11=0.5)
        # pi1 = p01 / (p01 + p10) = 0.1 / (0.1 + 0.5)
        assert chain.stationary_p == pytest.approx(0.1 / 0.6)

    def test_iid_special_case(self):
        chain = MarkovChainSpec(p01=0.2, p11=0.2)
        assert chain.stationary_p == pytest.approx(0.2)

    @given(st.floats(0.01, 0.4), st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_from_marginal_recovers_marginal(self, p, burstiness):
        try:
            chain = MarkovChainSpec.from_marginal(p, burstiness)
        except ScanStatisticsError:
            return  # infeasible combination — rejected, not mis-built
        assert chain.stationary_p == pytest.approx(p, rel=1e-6)

    def test_from_marginal_burstiness_one_is_iid(self):
        chain = MarkovChainSpec.from_marginal(0.1, 1.0)
        assert chain.p01 == pytest.approx(chain.p11, rel=1e-9)

    def test_invalid_probabilities(self):
        with pytest.raises(Exception):
            MarkovChainSpec(p01=-0.1, p11=0.5)


class TestTail:
    def test_iid_chain_matches_iid_tail(self):
        chain = MarkovChainSpec(p01=0.1, p11=0.1)
        assert markov_scan_tail(3, 6, 60, chain) == pytest.approx(
            exact_scan_tail(3, 6, 60, 0.1), abs=1e-12
        )

    @pytest.mark.parametrize("burstiness", [2.0, 4.0, 8.0])
    def test_burstiness_raises_tail(self, burstiness):
        p = 0.08
        iid = exact_scan_tail(4, 8, 80, p)
        chain = MarkovChainSpec.from_marginal(p, burstiness)
        assert markov_scan_tail(4, 8, 80, chain) > iid


class TestCriticalValues:
    def test_markov_quota_at_least_iid(self):
        p = 0.05
        for burstiness in (1.0, 3.0, 6.0):
            chain = MarkovChainSpec.from_marginal(p, burstiness)
            k_markov = markov_critical_value(chain, 10, 200)
            k_iid = critical_value(p, 10, 200)
            assert k_markov >= k_iid - 1  # approximation slack on iid side

    def test_quota_grows_with_burstiness(self):
        p = 0.05
        quotas = [
            markov_critical_value(
                MarkovChainSpec.from_marginal(p, b), 10, 200
            )
            for b in (1.0, 4.0, 8.0)
        ]
        assert quotas == sorted(quotas)

    def test_cap(self):
        chain = MarkovChainSpec.from_marginal(0.4, 2.0)
        assert markov_critical_value(chain, 6, 600, alpha=0.001) <= 6

    def test_zero_alpha_rejected(self):
        chain = MarkovChainSpec.from_marginal(0.1, 2.0)
        with pytest.raises(ScanStatisticsError):
            markov_critical_value(chain, 6, 60, alpha=0.0)


class TestAdjustedCriticalValue:
    def test_reduces_to_iid_at_burstiness_one(self):
        from repro.scanstats.markov import adjusted_critical_value

        for w, n, p in [(5, 750, 0.02), (50, 7500, 0.03)]:
            assert adjusted_critical_value(p, w, n, 0.01, 1.0) == (
                critical_value(p, w, n, 0.01)
            )

    def test_monotone_in_burstiness_small_window(self):
        from repro.scanstats.markov import adjusted_critical_value

        quotas = [
            adjusted_critical_value(0.05, 10, 500, 0.05, b)
            for b in (1.0, 3.0, 8.0)
        ]
        assert quotas == sorted(quotas)

    def test_large_window_declumping(self):
        from repro.scanstats.markov import adjusted_critical_value

        iid = critical_value(0.03, 50, 7500, 0.01)
        bursty = adjusted_critical_value(0.03, 50, 7500, 0.01, 5.0)
        assert bursty >= iid


class TestBurstyQuotaTable:
    def test_table_dispatches_to_markov(self):
        from repro.scanstats.critical import CriticalValueTable

        plain = CriticalValueTable(w=10, n=500, alpha=0.05)
        bursty = CriticalValueTable(w=10, n=500, alpha=0.05, burstiness=6.0)
        assert bursty.lookup_bucket(bursty.bucket_of(0.05)) >= (
            plain.lookup_bucket(plain.bucket_of(0.05))
        )


class TestMarkovModeSvaqd:
    def test_bursty_prior_controls_clustered_noise(self):
        """Window counts of a bursty null stream cross the i.i.d. quota far
        more often than alpha allows; the Markov-corrected quota restores
        control (footnote 7) at larger windows via declumping."""
        import numpy as np

        from repro.detectors.noise import alternating_indicator
        from repro.scanstats.markov import adjusted_critical_value
        from repro.utils.rng import derive_rng

        p, w, n, alpha, burst = 0.03, 15, 300, 0.01, 5.0
        k_iid = critical_value(p, w, n, alpha)
        k_markov = adjusted_critical_value(p, w, n, alpha, burst)
        assert k_markov > k_iid

        rng = derive_rng(11, "bursty-null")
        events = alternating_indicator(rng, 150_000, p, mean_run=burst)
        sums = np.convolve(
            events.astype(np.int32), np.ones(w, dtype=np.int32), "valid"
        )
        fpr_iid = float(np.mean(sums >= k_iid))
        fpr_markov = float(np.mean(sums >= k_markov))
        assert fpr_markov < fpr_iid
        assert fpr_markov <= 2 * alpha  # near the nominal level

    def test_markov_mode_svaqd_runs_without_collapse(self):
        """End-to-end: a Markov burstiness prior must not wreck a normal
        query (quotas rise a little; recall survives)."""
        from dataclasses import replace

        from repro.core.config import OnlineConfig
        from repro.core.engine import OnlineEngine
        from repro.core.query import Query
        from repro.detectors.zoo import default_zoo
        from repro.eval.metrics import match_sequences
        from tests.conftest import drive_session, make_kitchen_video

        zoo = default_zoo(seed=3)
        video = make_kitchen_video(seed=55, video_id="markov-mode")
        query = Query(objects=["faucet"], action="washing dishes")
        truth = video.truth.query_clips(
            ["faucet"], "washing dishes", video.meta.geometry
        )
        plain = OnlineEngine(zoo, OnlineConfig()).run(query, video)
        markov = drive_session(
            zoo, query, video, replace(OnlineConfig(), markov_burstiness=3.0),
            record_trace=True,
        )
        plain_f1 = match_sequences(plain.sequences, truth).f1
        markov_f1 = match_sequences(markov.sequences, truth).f1
        assert markov_f1 >= plain_f1 - 0.2
        # the corrected quotas are never below the iid ones
        final = markov.k_crit_trace[-1]
        assert all(k >= 1 for k in final.values())
