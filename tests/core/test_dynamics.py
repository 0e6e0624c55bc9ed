"""The shared quota manager (repro.core.dynamics)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import OnlineConfig
from repro.core.dynamics import QuotaManager
from repro.core.indicators import PredicateOutcome
from repro.video.model import VideoGeometry

GEO = VideoGeometry()


def manager(config=None) -> QuotaManager:
    return QuotaManager(["car"], ["jumping"], GEO, config or OnlineConfig())


def outcome(label: str, kind: str, count: int, units: int) -> PredicateOutcome:
    return PredicateOutcome(
        label, kind, evaluated=True, count=count, units=units,
        indicator=False,
    )


class TestConstruction:
    def test_quotas_for_every_label(self):
        quotas = manager().quotas()
        assert set(quotas) == {"car", "jumping"}
        assert all(k >= 1 for k in quotas.values())

    def test_object_window_is_frames_action_window_is_shots(self):
        m = manager()
        assert m.tracker("car").table.w == GEO.frames_per_clip
        assert m.tracker("jumping").table.w == GEO.shots_per_clip

    def test_rates_start_at_priors(self):
        config = replace(OnlineConfig(), object_p0=0.02, action_p0=0.005)
        m = manager(config)
        rates = m.rates()
        assert rates["car"] == pytest.approx(0.02)
        assert rates["jumping"] == pytest.approx(0.005)


class TestUpdatePolicies:
    def test_negative_clips_feed_estimators(self):
        m = manager()
        before = m.rates()["car"]
        for _ in range(100):
            m.update(
                {
                    "car": outcome("car", "object", 10, 50),
                    "jumping": outcome("jumping", "action", 0, 5),
                },
                positive=False,
                in_guard_band=False,
            )
        assert m.rates()["car"] > before  # 20% firing folded in

    def test_guard_band_blocks_folding(self):
        m = manager()
        before = m.rates()["car"]
        for _ in range(100):
            m.update(
                {"car": outcome("car", "object", 40, 50),
                 "jumping": outcome("jumping", "action", 5, 5)},
                positive=False,
                in_guard_band=True,  # adjacent to a detection
            )
        # rate-preserving imputation: the estimate stays at the prior level
        assert m.rates()["car"] == pytest.approx(before, rel=0.5)

    def test_positive_clips_do_not_fold_by_default(self):
        m = manager()
        before = m.rates()["car"]
        for _ in range(100):
            m.update(
                {"car": outcome("car", "object", 45, 50),
                 "jumping": outcome("jumping", "action", 5, 5)},
                positive=True,
                in_guard_band=False,
            )
        assert m.rates()["car"] == pytest.approx(before, rel=0.5)

    def test_all_policy_folds_everything(self):
        m = manager(replace(OnlineConfig(), update_on="all"))
        for _ in range(100):
            m.update(
                {"car": outcome("car", "object", 45, 50),
                 "jumping": outcome("jumping", "action", 5, 5)},
                positive=True,
                in_guard_band=False,
            )
        assert m.rates()["car"] > 0.3

    def test_missing_outcome_imputed(self):
        m = manager()
        prior = m.rates()["jumping"]
        for _ in range(50):
            m.update(
                {"car": outcome("car", "object", 1, 50)},  # jumping skipped
                positive=False,
                in_guard_band=False,
            )
        # the skipped predicate observed nothing and its estimate stays at
        # the prior (advance() deliberately no-ops before any real data —
        # imputing from the prior alone would fabricate confidence)
        assert m.tracker("jumping").estimator.event_count == 0
        assert m.rates()["jumping"] == pytest.approx(prior)

    def test_quotas_track_rates(self):
        m = manager()
        low = m.quotas()["car"]
        for _ in range(300):
            m.update(
                {"car": outcome("car", "object", 15, 50),
                 "jumping": outcome("jumping", "action", 0, 5)},
                positive=False,
                in_guard_band=False,
            )
        assert m.quotas()["car"] > low


class TestVectorisedRefresh:
    def test_refresh_all_matches_per_tracker_refresh(self):
        """The batched bucket pass must reproduce tracker.refresh() exactly
        for every label, at any point of a run."""
        m = QuotaManager(
            ["car", "dog", "bike"], ["jumping"], GEO, OnlineConfig()
        )
        for step in range(50):
            m.update(
                {
                    "car": outcome("car", "object", step % 11, 50),
                    "dog": outcome("dog", "object", step % 3, 50),
                    "bike": outcome("bike", "object", 0, 50),
                    "jumping": outcome("jumping", "action", step % 2, 5),
                },
                positive=False,
                in_guard_band=False,
            )
            vectorised = {
                label: m.tracker(label).k_crit for label in m.labels()
            }
            for label in m.labels():
                m.tracker(label).refresh()
            scalar = {
                label: m.tracker(label).k_crit for label in m.labels()
            }
            assert vectorised == scalar

    def test_single_tracker_falls_back_to_scalar_path(self):
        m = QuotaManager(["car"], [], GEO, OnlineConfig())
        m.update(
            {"car": outcome("car", "object", 5, 50)},
            positive=False,
            in_guard_band=False,
        )
        expected = m.tracker("car").table.lookup(m.rates()["car"])
        assert m.quotas()["car"] == expected

    def test_nonuniform_tables_use_per_tracker_refresh(self):
        """A caller swapping in a custom-resolution table must still get
        correct quotas via the scalar fallback."""
        from dataclasses import replace as dc_replace

        m = QuotaManager(["car", "dog"], [], GEO, OnlineConfig())
        tracker = m.tracker("car")
        tracker.table = dc_replace(tracker.table, resolution=0.2, _memo={})
        m._uniform_buckets = False  # what __init__ would have detected
        m.refresh_all()
        for label in m.labels():
            t = m.tracker(label)
            assert t.k_crit == t.table.lookup(t.estimator.rate)
