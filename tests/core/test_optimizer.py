"""Unit tests for the adaptive conjunct optimizer.

:class:`~repro.core.optimizer.ConjunctOptimizer` owns the probe
selectivity statistics and the cost-based ranking rule; these tests pin
its gate (MIN_PROBES), the ranking mode, cross-query sharing, the
reorder counter, order caching and the checkpoint round-trip — plus the
measured-cost chunk planner behind ``cache_chunk_clips=0``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import OnlineConfig
from repro.core.optimizer import (
    DEFAULT_CHUNK_CLIPS,
    MIN_PROBES,
    ConjunctOptimizer,
    planned_chunk_clips,
    resolved_chunk_clips,
)
from repro.detectors.zoo import default_zoo
from repro.errors import ConfigurationError
from repro.video.model import VideoGeometry

LABELS = ("person", "faucet", "washing dishes")


def feed(optimizer: ConjunctOptimizer, rates: dict[str, float], n: int) -> None:
    """Fold ``n`` probe observations per label firing at the given rate
    (deterministically: the first ``rate * n`` observations fire)."""
    for label, rate in rates.items():
        fires = round(rate * n)
        for i in range(n):
            optimizer.observe(label, i < fires)


class TestModes:
    def test_user_mode_never_reorders(self):
        opt = ConjunctOptimizer(LABELS, "user")
        feed(opt, {label: 0.5 for label in LABELS}, 10)
        assert opt.current_order() is None
        assert opt.order_for_epoch(3) is None
        assert opt.reorders == 0

    def test_invalid_mode_rejected(self):
        for mode in ("random", "selective"):  # "selective" was retired
            with pytest.raises(ConfigurationError):
                ConjunctOptimizer(LABELS, mode)
            with pytest.raises(ConfigurationError):
                OnlineConfig(predicate_order=mode)

    def test_cost_ties_keep_user_order(self):
        opt = ConjunctOptimizer(LABELS, "cost")
        feed(opt, {label: 0.5 for label in LABELS}, MIN_PROBES)
        assert opt.current_order() == LABELS

    def test_cost_ranks_unprobed_labels_by_pure_cost(self):
        costs = {"person": 450.0, "faucet": 95.0, "washing dishes": 700.0}
        opt = ConjunctOptimizer(LABELS, "cost", cost_fn=costs.__getitem__)
        # No probes at all: optimistic always-falsifies prior, pure cost.
        assert opt.current_order() == ("faucet", "person", "washing dishes")

    def test_cost_rate_inflates_expected_cost(self):
        # A near-certain predicate almost never falsifies the conjunction,
        # so even a cheap one ranks behind an expensive likely-failure.
        costs = {"person": 95.0, "faucet": 450.0, "washing dishes": 700.0}
        opt = ConjunctOptimizer(LABELS, "cost", cost_fn=costs.__getitem__)
        feed(opt, {"person": 1.0, "faucet": 0.0, "washing dishes": 0.0},
             MIN_PROBES)
        order = opt.current_order()
        assert order is not None
        assert order.index("faucet") < order.index("person")

    def test_cost_without_cost_fn_degrades_to_selectivity(self):
        opt = ConjunctOptimizer(LABELS, "cost")
        feed(opt, {"person": 0.9, "faucet": 0.1, "washing dishes": 0.5},
             MIN_PROBES)
        assert opt.current_order() == ("faucet", "washing dishes", "person")


class TestSharing:
    def test_sharing_divides_effective_cost(self):
        costs = {"person": 450.0, "faucet": 95.0, "washing dishes": 700.0}
        opt = ConjunctOptimizer(LABELS, "cost", cost_fn=costs.__getitem__)
        assert opt.current_order() == ("faucet", "person", "washing dishes")
        # 10 queries share "washing dishes": 700/10 = 70 < 95 — it jumps
        # ahead of the solo labels.
        opt.set_sharing({"washing dishes": 10})
        assert opt.current_order() == ("washing dishes", "faucet", "person")

    def test_solo_degrees_do_not_invalidate_the_order_cache(self):
        opt = ConjunctOptimizer(LABELS, "cost", cost_fn=lambda label: 1.0)
        first = opt.current_order()
        opt.set_sharing({label: 1 for label in LABELS})
        assert opt.current_order() is first  # same cached tuple


class TestOrderCaching:
    def test_order_cached_until_next_observation(self):
        opt = ConjunctOptimizer(LABELS, "cost")
        feed(opt, {"person": 0.9, "faucet": 0.1, "washing dishes": 0.5},
             MIN_PROBES)
        first = opt.current_order()
        # No new probes: repeated calls return the cached tuple itself.
        assert opt.current_order() is first
        assert opt.current_order() is first
        opt.observe("person", True)
        second = opt.current_order()
        assert second is not first
        assert second == first  # same ranking, recomputed once

    def test_reorders_count_effective_changes_only(self):
        opt = ConjunctOptimizer(LABELS, "cost")
        # Converging to the user order itself is not a reorder.
        feed(opt, {"person": 0.1, "faucet": 0.5, "washing dishes": 0.9},
             MIN_PROBES)
        assert opt.current_order() == LABELS
        assert opt.reorders == 0
        # Flipping the two objects is.
        feed(opt, {"person": 1.0}, 20)
        assert opt.current_order() == ("faucet", "person", "washing dishes")
        assert opt.reorders == 1

    def test_order_for_epoch_sticks_within_an_epoch(self):
        opt = ConjunctOptimizer(LABELS, "cost")
        feed(opt, {"person": 0.9, "faucet": 0.1, "washing dishes": 0.5},
             MIN_PROBES)
        epoch0 = opt.order_for_epoch(0)
        # New observations mid-epoch must not move the stored order...
        feed(opt, {"person": 0.0}, 50)
        assert opt.order_for_epoch(0) is epoch0
        # ...but the next epoch refreshes from the full statistics.
        assert opt.order_for_epoch(1) != epoch0


class TestEstimates:
    def test_unprobed_rate_is_none_not_nan(self):
        opt = ConjunctOptimizer(LABELS, "cost")
        opt.observe("person", True)
        estimates = opt.selectivity_estimates()
        assert estimates["person"] == 1.0
        assert estimates["faucet"] is None
        assert estimates["washing dishes"] is None
        # The historical bug: float("nan") here broke strict JSON.
        json.dumps(estimates, allow_nan=False)


class TestCheckpoint:
    def test_state_round_trip(self):
        opt = ConjunctOptimizer(LABELS, "cost")
        feed(opt, {"person": 0.9, "faucet": 0.1, "washing dishes": 0.5},
             MIN_PROBES + 2)
        opt.order_for_epoch(4)
        state = json.loads(json.dumps(opt.state_dict()))

        twin = ConjunctOptimizer(LABELS, "cost")
        twin.load_state_dict(state)
        assert twin.selectivity_estimates() == opt.selectivity_estimates()
        assert twin.reorders == opt.reorders
        assert twin.order_for_epoch(4) == opt.order_for_epoch(4)
        assert twin.current_order() == opt.current_order()

    def test_resume_does_not_recount_the_last_reorder(self):
        opt = ConjunctOptimizer(LABELS, "cost")
        feed(opt, {"person": 0.9, "faucet": 0.1, "washing dishes": 0.5},
             MIN_PROBES)
        opt.current_order()
        assert opt.reorders == 1
        twin = ConjunctOptimizer(LABELS, "cost")
        twin.load_state_dict(json.loads(json.dumps(opt.state_dict())))
        # Same statistics, same order: recomputing after load must not
        # bump the counter again.
        twin.current_order()
        assert twin.reorders == 1


class TestChunkPlanner:
    def test_planned_from_profile_rates(self):
        zoo = default_zoo(seed=0)
        geometry = VideoGeometry()
        per_clip = (
            geometry.frames_per_clip * zoo.detector.profile.ms_per_unit
            + geometry.shots_per_clip * zoo.recognizer.profile.ms_per_unit
        )
        planned = planned_chunk_clips(zoo, geometry)
        assert 32 <= planned <= 2048
        if per_clip > 0:
            assert planned == max(32, min(2048, int(1_000_000.0 / per_clip)))

    def test_zero_cost_zoo_falls_back_to_default(self):
        from repro.detectors.zoo import ideal_zoo

        zoo = ideal_zoo(seed=0)
        assert planned_chunk_clips(zoo, VideoGeometry()) == DEFAULT_CHUNK_CLIPS

    def test_resolved_prefers_the_config_constant(self):
        zoo = default_zoo(seed=0)
        geometry = VideoGeometry()
        assert resolved_chunk_clips(
            OnlineConfig(cache_chunk_clips=64), zoo, geometry
        ) == 64
        assert resolved_chunk_clips(
            OnlineConfig(cache_chunk_clips=0), zoo, geometry
        ) == planned_chunk_clips(zoo, geometry)

    def test_observed_rates_override_profile_rates(self):
        zoo = default_zoo(seed=0)
        geometry = VideoGeometry()
        baseline = planned_chunk_clips(zoo, geometry)
        # A charge lands at 10× the detector's profile rate: the measured
        # per-clip cost rises, so the planned chunk shrinks (or clamps).
        zoo.cost_meter.record(
            zoo.detector.name, 100,
            100 * zoo.detector.profile.ms_per_unit * 10,
        )
        assert planned_chunk_clips(zoo, geometry) <= baseline
