"""Per-tenant admission: slot quotas, unit budgets, ledger round-trips."""

from __future__ import annotations

import json

import pytest

from repro.core.query import Query
from repro.core.scheduler import QuerySpec
from repro.detectors.zoo import default_zoo
from repro.errors import AdmissionError
from repro.service import AdmissionController, QueryService, TenantQuota
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=44, duration_s=180.0, video_id="admvid")
QUERY = Query(objects=["faucet"], action="washing dishes")


class TestTenantQuota:
    def test_defaults(self):
        quota = TenantQuota()
        assert quota.max_concurrent == 4
        assert quota.model_unit_budget is None

    @pytest.mark.parametrize(
        "kwargs", [{"max_concurrent": 0}, {"model_unit_budget": -1}]
    )
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(AdmissionError):
            TenantQuota(**kwargs)


class TestSlots:
    def test_admit_until_quota_then_reject(self):
        control = AdmissionController(TenantQuota(max_concurrent=2))
        control.admit("acme", "q0")
        control.admit("acme", "q1")
        with pytest.raises(
            AdmissionError, match="at its concurrent-query quota"
        ) as err:
            control.admit("acme", "q2")
        assert "'acme'" in str(err.value)
        assert "'q2'" in str(err.value)
        # Tenants are isolated: another tenant still has slots.
        control.admit("other", "q0")

    def test_release_reopens_a_slot(self):
        control = AdmissionController(TenantQuota(max_concurrent=1))
        control.admit("acme", "q0")
        control.release("acme")
        control.admit("acme", "q1")

    def test_overrides_pin_specific_tenants(self):
        control = AdmissionController(
            TenantQuota(max_concurrent=1),
            overrides={"vip": TenantQuota(max_concurrent=8)},
        )
        assert control.quota_for("vip").max_concurrent == 8
        assert control.quota_for("anyone").max_concurrent == 1


class TestUnitBudget:
    def test_budget_blocks_new_registrations_only(self):
        control = AdmissionController(
            TenantQuota(max_concurrent=4, model_unit_budget=10)
        )
        control.admit("acme", "q0")
        control.charge("acme", detector_units=8, recognizer_units=2)
        assert control.units_used("acme") == 10
        with pytest.raises(
            AdmissionError, match="exhausted its model-unit budget"
        ) as err:
            control.admit("acme", "q1")
        assert "10/10" in str(err.value)
        # The running query keeps its slot; only new admissions fail.
        assert control.usage()["acme"]["live_queries"] == 1

    def test_usage_reports_unlimited_budget_as_sentinel(self):
        control = AdmissionController()
        control.admit("acme", "q0")
        assert control.usage()["acme"]["unit_budget"] == -1


class TestServiceIntegration:
    def test_over_quota_registration_leaves_fleet_untouched(self):
        service = QueryService(
            default_zoo(seed=3),
            admission=AdmissionController(TenantQuota(max_concurrent=1)),
        )
        service.add_stream("cam", VIDEO)
        service.register("cam", QuerySpec("first", QUERY), tenant="acme")
        with pytest.raises(AdmissionError, match="concurrent-query quota"):
            service.register("cam", QuerySpec("second", QUERY), tenant="acme")
        assert service.live("cam") == ("first",)
        # The rejected name was never burned — it registers fine once a
        # slot opens up.
        service.cancel("cam", "first")
        service.register("cam", QuerySpec("second", QUERY), tenant="acme")

    def test_steps_charge_fresh_units_to_the_tenant(self):
        service = QueryService(default_zoo(seed=3), clip_batch=8)
        service.add_stream("cam", VIDEO)
        name = service.register("cam", QUERY, tenant="acme")
        service.step("cam")
        stats = service.health()["streams"]["cam"]["queries"][name]
        fresh = (
            stats["detector_invocations"] - stats["detector_cache_hits"]
            + stats["recognizer_invocations"]
            - stats["recognizer_cache_hits"]
        )
        assert fresh > 0
        assert service.admission.units_used("acme") == fresh
        # Stepping again charges only the delta, never re-meters.
        service.step("cam")
        stats = service.health()["streams"]["cam"]["queries"][name]
        fresh = (
            stats["detector_invocations"] - stats["detector_cache_hits"]
            + stats["recognizer_invocations"]
            - stats["recognizer_cache_hits"]
        )
        assert service.admission.units_used("acme") == fresh

    def test_each_model_is_charged_its_own_units(self):
        """The tenant's meter splits units by the model that ran them, as
        the queries' own counters do — before and after a migration (the
        service used to book recognizer work as detector units once a
        query had any detector charges)."""

        def split(service):
            return service.admission.state_dict()["meters"]["acme"]["units"]

        def fresh(service):
            queries = service.health()["streams"]["cam"]["queries"].values()
            return {
                model: sum(
                    stats[f"{model}_invocations"] - stats[f"{model}_cache_hits"]
                    for stats in queries
                )
                for model in ("detector", "recognizer")
            }

        service = QueryService(default_zoo(seed=3), clip_batch=8)
        service.add_stream("cam", VIDEO)
        for name, algorithm in (("static", "svaq"), ("dynamic", "svaqd")):
            service.register(
                "cam", QuerySpec(name, QUERY, algorithm), tenant="acme"
            )
        other = Query(objects=["person"], action="washing dishes")
        service.register("cam", QuerySpec("other", other), tenant="acme")
        for _ in range(5):
            service.step("cam")
        assert split(service) == fresh(service)
        assert fresh(service)["recognizer"] > 0
        bundle = json.loads(json.dumps(service.snapshot().to_dict()))
        resumed = QueryService.resume(
            bundle, {"cam": VIDEO}, default_zoo(seed=3), clip_batch=8
        )
        for _ in range(5):
            resumed.step("cam")
        assert resumed.live("cam") == ("static", "dynamic", "other")
        assert split(resumed) == fresh(resumed)


class TestCheckpoint:
    def test_state_round_trips_through_json(self):
        control = AdmissionController(
            TenantQuota(max_concurrent=2, model_unit_budget=100)
        )
        control.admit("acme", "q0")
        control.admit("acme", "q1")
        control.charge("acme", detector_units=7, recognizer_units=3)
        state = json.loads(json.dumps(control.state_dict()))

        restored = AdmissionController(
            TenantQuota(max_concurrent=2, model_unit_budget=100)
        )
        restored.load_state_dict(state)
        assert restored.units_used("acme") == 10
        assert restored.usage() == control.usage()
        # Both slots are still held — the next admit must fail.
        with pytest.raises(AdmissionError, match="concurrent-query quota"):
            restored.admit("acme", "q2")
