"""The shared quota manager (repro.core.dynamics)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import OnlineConfig
from repro.core.dynamics import QuotaManager
from repro.core.indicators import PredicateOutcome
from repro.errors import ConfigurationError
from repro.video.model import VideoGeometry


def lookup(table, rate: float) -> int:
    """The quota a critical-value table gives ``rate``."""
    return table.lookup(rate)

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
        assert m.state_dict()["estimators"]["jumping"]["event_count"] == 0
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


class TestIncrementalRefresh:
    def test_bucket_skip_matches_a_table_lookup(self):
        """The bucket-skip refresh must reproduce the table's quota at the rate
        exactly for every label, at any point of a run."""
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
            rates = m.rates()
            assert m.quotas() == {
                label: lookup(m.tracker(label).table, rates[label])
                for label in m.labels()
            }
        assert m.refresh_skipped > 0

    def test_single_tracker(self):
        m = QuotaManager(["car"], [], GEO, OnlineConfig())
        m.update(
            {"car": outcome("car", "object", 5, 50)},
            positive=False,
            in_guard_band=False,
        )
        expected = lookup(m.tracker("car").table, m.rates()["car"])
        assert m.quotas()["car"] == expected


class TestCheckpoint:
    def test_round_trip_is_the_bare_interchange_dict(self):
        m = manager()
        m.update(
            {"car": outcome("car", "object", 7, 50)},
            positive=False,
            in_guard_band=False,
        )
        state = m.state_dict()
        assert set(state["estimators"]["car"]) == {
            "bandwidth", "initial_p", "p_floor", "p_ceil", "prior_mass",
            "weighted_events", "time", "event_count",
        }
        twin = manager()
        twin.load_state_dict(state)
        assert twin.rates() == m.rates()
        assert twin.quotas() == m.quotas()
        assert twin.state_dict() == state

    @pytest.mark.parametrize(
        "damage",
        [
            lambda entries: entries["car"].pop("time"),
            lambda entries: entries["car"].update(time="soon"),
            lambda entries: entries["car"].update(bandwidth=None),
            lambda entries: entries["car"].update(bandwidth=-1.0),
            lambda entries: entries.update(car=3),
            lambda entries: entries.update(dog=dict(entries["car"])),
            lambda entries: entries.pop("jumping"),
        ],
        ids=[
            "missing-key", "wrong-type", "null", "out-of-range", "not-a-dict",
            "unknown-label", "missing-label",
        ],
    )
    def test_malformed_entries_are_configuration_errors(self, damage):
        state = manager().state_dict()
        damage(state["estimators"])
        with pytest.raises(ConfigurationError, match="estimator"):
            manager().load_state_dict(state)

    def test_estimators_must_be_a_mapping(self):
        with pytest.raises(ConfigurationError, match="estimators"):
            manager().load_state_dict({"estimators": None})
