"""Per-tenant admission: slot quotas, unit budgets, ledger round-trips."""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.core.config import OnlineConfig
from repro.core.query import CompoundQuery, Query
from repro.core.scheduler import QuerySpec
from repro.core.session import ChunkFeed, StreamSession
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
            return service.admission.state_dict()["units"]["acme"]

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


LONG = make_kitchen_video(seed=45, duration_s=1200.0, video_id="admlong")
ARMED = OnlineConfig(
    cache_detections=False,
    retry_max_attempts=4,
    failure_policy="hold_last_estimate",
)


def meter_a_mixed_fleet(config, *, check_reads):
    """A mixed SVAQ/SVAQD fleet of two tenants on one 600-clip stream,
    batches of 8: a registration, a cancel and a snapshot → JSON → resume,
    each in the middle of a 256-clip chunk.  Returns each tenant's
    admission units per model and, per step that opened no chunk and did
    not end the stream, how many times a session was folded during it.
    ``check_reads`` compares every live query's metering read with its
    folded counters after every step (which folds them all)."""
    either = CompoundQuery.disjunction(
        [Query(objects=["faucet"]), Query(action="washing dishes")]
    )
    other = Query(objects=["person"], action="washing dishes")

    def admission():
        return AdmissionController(TenantQuota(max_concurrent=8))

    service = QueryService(
        default_zoo(seed=3), config, admission=admission(), clip_batch=8
    )
    service.add_stream("cam", LONG)
    for spec, tenant in (
        (QuerySpec("static", QUERY, "svaq"), "acme"),
        (QuerySpec("dynamic", QUERY, "svaqd"), "acme"),
        (QuerySpec("either", either, "svaqd"), "zenith"),
        (QuerySpec("other", other, "svaq"), "zenith"),
    ):
        service.register("cam", spec, tenant=tenant)
    folds, opened, steady = [], [], []
    sync, open_feed = StreamSession.sync, ChunkFeed.__init__

    def counted_sync(session):
        folds.append(session)
        sync(session)

    def counted_open(feed, *args):
        opened.append(feed)
        open_feed(feed, *args)

    with mock.patch.object(StreamSession, "sync", counted_sync), \
            mock.patch.object(ChunkFeed, "__init__", counted_open):
        for step in range(1000):
            if service.done("cam"):
                break
            if step == 5:
                service.register("cam", QuerySpec("late", other), tenant="zenith")
            if step == 15:
                service.cancel("cam", "dynamic")
            if step == 25:
                bundle = json.loads(json.dumps(service.snapshot().to_dict()))
                service = QueryService.resume(
                    bundle, {"cam": LONG}, default_zoo(seed=3), config,
                    admission=admission(), clip_batch=8,
                )
            del folds[:], opened[:]
            service.step("cam")
            if not opened and not service.done("cam"):
                steady.append(len(folds))
            fleet = service._stream("cam").fleet
            for name in fleet.live if check_reads else ():
                read = fleet.session(name).fresh_evaluations()
                stats = fleet.context(name)
                assert read == (
                    stats.detector_invocations - stats.detector_cache_hits,
                    stats.recognizer_invocations - stats.recognizer_cache_hits,
                ), (step, name)
    return service.admission.state_dict()["units"], steady


@pytest.mark.parametrize(
    "config, units",
    [
        (
            OnlineConfig(),
            {
                "acme": {"detector": 600, "recognizer": 382},
                "zenith": {"detector": 600, "recognizer": 218},
            },
        ),
        (
            ARMED,
            {
                "acme": {"detector": 720, "recognizer": 425},
                "zenith": {"detector": 1760, "recognizer": 1099},
            },
        ),
    ],
    ids=["block", "armed"],
)
def test_a_steady_step_meters_tenants_without_folding_a_session(config, units):
    """A fence that needs no clock.  A service step that opens no chunk
    folds no session to meter its tenants: each query's fresh evaluations
    are its counters plus what the feed's charge ledger booked it since it
    last folded, and that read equals the folded counters after every
    step.  The tenants' units are the same whether or not anything folds
    in between, registration, cancel and migration included."""
    for check_reads in (False, True):
        metered, steady = meter_a_mixed_fleet(config, check_reads=check_reads)
        assert metered == units
        assert len(steady) > 60 and not any(steady)


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
        # The live slots are not in the state: a resuming service names
        # the tenant of each live query it restored.
        restored.load_state_dict(state, live=["acme", "acme"])
        assert restored.units_used("acme") == 10
        assert restored.usage() == control.usage()
        # Both slots are still held — the next admit must fail.
        with pytest.raises(AdmissionError, match="concurrent-query quota"):
            restored.admit("acme", "q2")
