"""Algorithm 3 — SVAQD: dynamic background-probability adjustment."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import OnlineConfig
from repro.core.engine import OnlineEngine
from repro.core.query import Query
from repro.eval.metrics import MatchReport, match_sequences
from repro.video.synthesis import SceneSpec, TrackSpec, synthesize_video
from tests.conftest import drive_session, make_kitchen_video

VIDEOS = [
    make_kitchen_video(seed=s, duration_s=300.0, video_id=f"svaqdvid{s}")
    for s in (41, 42, 43)
]
QUERY = Query(objects=["faucet"], action="washing dishes")


def aggregate_f1(zoo, config) -> float:
    total = MatchReport(0, 0, 0)
    for video in VIDEOS:
        gt = video.truth.query_clips(
            ["faucet"], "washing dishes", video.meta.geometry
        )
        result = OnlineEngine(zoo, config).run(QUERY, video)
        total = total + match_sequences(result.sequences, gt)
    return total.f1


class TestInsensitivityToP0:
    def test_flat_across_four_orders_of_magnitude(self, zoo):
        f1s = [
            aggregate_f1(zoo, OnlineConfig().with_p0(p0))
            for p0 in (1e-6, 1e-4, 1e-2)
        ]
        assert max(f1s) - min(f1s) <= 0.25
        assert min(f1s) >= 0.55

    def test_ideal_models_exact(self, perfect_zoo):
        video = VIDEOS[0]
        gt = video.truth.query_clips(
            ["faucet"], "washing dishes", video.meta.geometry
        )
        result = OnlineEngine(perfect_zoo, OnlineConfig()).run(QUERY, video)
        assert match_sequences(result.sequences, gt).f1 >= 0.85


class TestAdaptation:
    def test_rates_converge_toward_null_rates(self, zoo):
        result = OnlineEngine(zoo, OnlineConfig().with_p0(1e-4)).run(QUERY, VIDEOS[0])
        # Background estimates live near the detectors' false-positive
        # rates, far from both extreme initialisations.
        for label, rate in result.final_rates.items():
            assert 1e-7 <= rate < 0.3, (label, rate)

    def test_k_crit_trace_recorded(self, zoo):
        result = drive_session(zoo, QUERY, VIDEOS[0], OnlineConfig(), record_trace=True)
        assert len(result.k_crit_trace) == VIDEOS[0].meta.n_clips
        assert set(result.k_crit_trace[0]) == {"faucet", "washing dishes"}

    def test_trace_off_by_default(self, zoo):
        result = OnlineEngine(zoo, OnlineConfig()).run(QUERY, VIDEOS[0])
        assert result.k_crit_trace == ()

    def test_adapts_to_drift(self, zoo):
        spec = SceneSpec(
            video_id="drift-test",
            duration_s=480.0,
            tracks=(
                TrackSpec(label="loitering", kind="action",
                          occupancy=0.12, mean_duration_s=18.0),
                TrackSpec(label="car", kind="object",
                          correlate_with="loitering", correlation=0.92,
                          phases=((0.4, 0.04), (0.3, 0.35), (0.3, 0.04)),
                          mean_duration_s=10.0),
            ),
        )
        video = synthesize_video(spec, seed=9)
        query = Query(objects=["car"], action="loitering")
        gt = video.truth.query_clips(["car"], "loitering", video.meta.geometry)
        result = drive_session(zoo, query, video, OnlineConfig(), record_trace=True)
        # The car quota must have risen during the rush-hour phase.
        quotas = [t["car"] for t in result.k_crit_trace]
        n = len(quotas)
        rush = max(quotas[int(0.45 * n) : int(0.7 * n)])
        calm = quotas[int(0.2 * n)]
        assert rush > calm
        assert match_sequences(result.sequences, gt).f1 >= 0.5


class TestUpdatePolicies:
    @pytest.mark.parametrize("policy", ["negative", "all", "positive"])
    def test_policies_run(self, zoo, policy):
        config = replace(OnlineConfig(), update_on=policy)
        result = OnlineEngine(zoo, config).run(QUERY, VIDEOS[0])
        assert len(result.evaluations) == VIDEOS[0].meta.n_clips

    def test_invalid_policy_rejected(self):
        with pytest.raises(Exception):
            replace(OnlineConfig(), update_on="sometimes")

    def test_default_policy_at_least_as_good(self, zoo):
        default_f1 = aggregate_f1(zoo, OnlineConfig())
        marginal_f1 = aggregate_f1(
            zoo, replace(OnlineConfig(), update_on="all")
        )
        assert default_f1 >= marginal_f1 - 0.1


class TestDeterminism:
    def test_repeatable(self, zoo):
        a = OnlineEngine(zoo, OnlineConfig()).run(QUERY, VIDEOS[0])
        b = OnlineEngine(zoo, OnlineConfig()).run(QUERY, VIDEOS[0])
        assert a.sequences == b.sequences
        assert a.final_rates == b.final_rates
