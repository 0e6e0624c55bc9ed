"""Service migration: one JSON bundle, result-identical resume."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.engine import OnlineEngine
from repro.core.query import Query
from repro.core.scheduler import QuerySpec
from repro.detectors.zoo import default_zoo
from repro.errors import AdmissionError, ConfigurationError
from repro.service import (
    SERVICE_BUNDLE_VERSION,
    AdmissionController,
    QueryService,
    ServiceClient,
    ServiceState,
    TenantQuota,
)
from repro.service.registry import QUERY_CANCELLED
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=47, duration_s=240.0, video_id="migvid")
VIDEO_B = make_kitchen_video(seed=48, duration_s=120.0, video_id="migvid-b")
QUERIES = [
    QuerySpec("faucet", Query(objects=["faucet"], action="washing dishes")),
    QuerySpec(
        "person",
        Query(objects=["person"], action="washing dishes"),
        algorithm="svaq",
    ),
]


def finish(service):
    asyncio.run(service.serve())


class TestSnapshotResume:
    def _build(self, *, admission=None):
        service = QueryService(
            default_zoo(seed=3), admission=admission, clip_batch=4
        )
        service.add_stream("cam", VIDEO)
        service.add_stream("door", VIDEO_B)
        for spec in QUERIES:
            service.register("cam", spec, tenant="acme")
        service.register("door", QUERIES[0], tenant="acme")
        return service

    def test_resumed_service_is_result_identical(self):
        service = self._build()
        service.step("cam")
        service.step("door")
        service.step("cam")
        bundle = json.loads(json.dumps(service.snapshot().to_dict()))

        resumed = QueryService.resume(
            bundle,
            {"cam": VIDEO, "door": VIDEO_B},
            default_zoo(seed=3),
            clip_batch=4,
        )
        assert resumed.position("cam") == 8
        assert resumed.position("door") == 4
        assert resumed.live("cam") == ("faucet", "person")
        finish(resumed)

        # The reference runs the same specs (same algorithms) batch-style.
        reference = OnlineEngine(default_zoo(seed=3)).run_queries(QUERIES, VIDEO)
        for spec in QUERIES:
            assert resumed.result("cam", spec.name).sequences == (
                reference[spec.name].sequences
            )
        door_reference = OnlineEngine(
            zoo=default_zoo(seed=3)
        ).run_queries([QUERIES[0].query], VIDEO_B)
        assert resumed.result("door", "faucet").sequences == (
            door_reference["q0"].sequences
        )

    def test_resume_pushes_only_post_snapshot_sequences(self):
        service = self._build()

        async def pre_snapshot():
            queue = service.subscribe("cam", "faucet")
            for _ in range(3):
                service.step("cam")
            events = []
            while not queue.empty():
                events.append(queue.get_nowait())
            return [(e.interval.start, e.interval.end) for e in events]

        before = asyncio.run(pre_snapshot())
        bundle = service.snapshot().to_dict()
        resumed = QueryService.resume(
            bundle, {"cam": VIDEO, "door": VIDEO_B}, default_zoo(seed=3)
        )
        client = ServiceClient(resumed, tenant="acme")

        async def main():
            task = asyncio.create_task(client.collect("cam", "faucet"))
            await asyncio.sleep(0)
            await resumed.serve()
            return await task

        pushed, final = asyncio.run(main())
        after = [(iv.start, iv.end) for iv in pushed]
        # Restored sequences are not re-emitted: the resumed service
        # pushes only the suffix, and the two processes' pushes together
        # are exactly the final result — nothing lost, nothing doubled.
        assert before + after == final.sequences.as_tuples()

    def test_snapshot_freezes_the_source_service(self):
        service = self._build()
        service.step("cam")
        service.snapshot()
        with pytest.raises(ConfigurationError, match="snapshotted"):
            service.step("cam")

    def test_resume_requires_every_bundled_video(self):
        service = self._build()
        bundle = service.snapshot().to_dict()
        with pytest.raises(ConfigurationError, match="no video"):
            QueryService.resume(bundle, {"cam": VIDEO}, default_zoo(seed=3))

    def test_registry_history_survives_migration(self):
        service = self._build()
        service.step("cam")
        service.cancel("cam", "person")
        bundle = json.loads(json.dumps(service.snapshot().to_dict()))
        resumed = QueryService.resume(
            bundle, {"cam": VIDEO, "door": VIDEO_B}, default_zoo(seed=3)
        )
        assert resumed.registry.get("cam", "person").status == (
            QUERY_CANCELLED
        )
        assert resumed.live("cam") == ("faucet",)
        # The cancelled name stays burned on the resumed service too.
        with pytest.raises(ConfigurationError, match="duplicate"):
            resumed.register("cam", QUERIES[1], tenant="acme")

    def test_admission_ledgers_survive_migration(self):
        admission = AdmissionController(TenantQuota(max_concurrent=3))
        service = self._build(admission=admission)
        service.step("cam")
        used_before = service.admission.units_used("acme")
        assert used_before > 0
        bundle = json.loads(json.dumps(service.snapshot().to_dict()))
        resumed = QueryService.resume(
            bundle,
            {"cam": VIDEO, "door": VIDEO_B},
            default_zoo(seed=3),
            admission=AdmissionController(TenantQuota(max_concurrent=3)),
        )
        assert resumed.admission.units_used("acme") == used_before
        assert resumed.admission.usage()["acme"]["live_queries"] == 3
        with pytest.raises(AdmissionError, match="concurrent-query quota"):
            resumed.register(
                "cam", QuerySpec("late", QUERIES[0].query), tenant="acme"
            )


class TestBundleFormat:
    def test_round_trip(self):
        service = QueryService(default_zoo(seed=3))
        service.add_stream("cam", VIDEO)
        service.register("cam", QUERIES[0])
        state = service.snapshot()
        assert state.version == SERVICE_BUNDLE_VERSION
        rebuilt = ServiceState.from_dict(
            json.loads(json.dumps(state.to_dict()))
        )
        assert rebuilt.to_dict() == state.to_dict()

    @pytest.mark.parametrize("version", [0, 2, None, "1"])
    def test_unknown_versions_refused(self, version):
        with pytest.raises(
            ConfigurationError, match="unsupported service bundle version"
        ):
            ServiceState.from_dict(
                {
                    "version": version,
                    "streams": {},
                    "registry": {},
                    "admission": {},
                }
            )
