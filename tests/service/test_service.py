"""The streaming query service: live registration, incremental push,
cancellation — all result-identical to the batch engine."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import OnlineConfig
from repro.core.engine import OnlineEngine
from repro.core.query import CompoundQuery, Query
from repro.core.scheduler import QuerySpec
from repro.detectors.zoo import default_zoo
from repro.errors import ConfigurationError
from repro.service import QueryService, ServiceClient
from repro.service.service import EVENT_FINAL, EVENT_SEQUENCE
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=41, duration_s=240.0, video_id="svcvid")
VIDEO_B = make_kitchen_video(seed=42, duration_s=180.0, video_id="svcvid-b")
QUERIES = [
    Query(objects=["faucet"], action="washing dishes"),
    Query(objects=["person"], action="washing dishes"),
]


def reference_run(queries=QUERIES, video=VIDEO):
    return OnlineEngine(zoo=default_zoo(seed=3)).run_queries(queries, video)


def drive(service, *collect):
    """Run the service to completion alongside collect() coroutines."""

    async def main():
        tasks = [asyncio.create_task(coro) for coro in collect]
        await asyncio.sleep(0)  # let collectors subscribe before clips flow
        await service.serve()
        return [await t for t in tasks]

    return asyncio.run(main())


class TestResultPush:
    def test_pushed_sequences_match_batch_engine(self):
        service = QueryService(default_zoo(seed=3), clip_batch=4)
        service.add_stream("cam", VIDEO)
        client = ServiceClient(service)
        names = [client.register("cam", q) for q in QUERIES]
        outs = drive(
            service, *(client.collect("cam", n) for n in names)
        )
        reference = reference_run()
        for name, (pushed, final) in zip(names, outs):
            assert final.sequences == reference[name].sequences
            # Incremental pushes reassemble into exactly the final result.
            assert [
                (iv.start, iv.end) for iv in pushed
            ] == final.sequences.as_tuples()

    def test_multiple_streams_progress_together(self):
        service = QueryService(default_zoo(seed=3), clip_batch=8)
        service.add_stream("a", VIDEO)
        service.add_stream("b", VIDEO_B)
        client = ServiceClient(service)
        name_a = client.register("a", QUERIES[0])
        name_b = client.register("b", QUERIES[0])
        outs = drive(
            service,
            client.collect("a", name_a),
            client.collect("b", name_b),
        )
        assert outs[0][1].sequences == reference_run()[name_a].sequences
        assert outs[1][1].sequences == (
            reference_run(video=VIDEO_B)[name_b].sequences
        )

    def test_subscribe_sees_kinds_and_metadata(self):
        service = QueryService(default_zoo(seed=3))
        service.add_stream("cam", VIDEO)
        name = service.register("cam", QUERIES[0], tenant="acme")

        async def main():
            queue = service.subscribe("cam", name)
            await service.serve()
            events = []
            while not queue.empty():
                events.append(queue.get_nowait())
            return events

        events = asyncio.run(main())
        assert events, "no events pushed"
        assert all(e.tenant == "acme" for e in events)
        assert [e.kind for e in events[:-1]] == (
            [EVENT_SEQUENCE] * (len(events) - 1)
        )
        assert events[-1].kind == EVENT_FINAL
        assert events[-1].result.sequences.as_tuples() == [
            (e.interval.start, e.interval.end) for e in events[:-1]
        ]

    def test_subscribe_unknown_query_rejected(self):
        service = QueryService(default_zoo(seed=3))
        service.add_stream("cam", VIDEO)
        with pytest.raises(ConfigurationError, match="no query"):
            service.subscribe("cam", "ghost")


class TestRegistration:
    def test_register_mid_stream_sees_the_suffix(self):
        service = QueryService(default_zoo(seed=3), clip_batch=8)
        service.add_stream("cam", VIDEO)
        service.register("cam", QUERIES[0])
        service.step("cam")
        join_at = service.position("cam")
        assert join_at == 8
        late = service.register("cam", QUERIES[1])

        async def main():
            await service.serve()

        asyncio.run(main())
        from repro.core.session import StreamSession
        from repro.video.stream import ClipStream

        session = StreamSession.for_query(
            default_zoo(seed=3), QUERIES[1], VIDEO, OnlineConfig(),
            dynamic=True,
        )
        for clip in ClipStream(VIDEO.meta, start_clip=join_at):
            session.process(clip)
        assert service.result("cam", late).sequences == (
            session.finish().sequences
        )

    def test_duplicate_names_rejected_across_history(self):
        service = QueryService(default_zoo(seed=3))
        service.add_stream("cam", VIDEO)
        service.register("cam", QuerySpec("mine", QUERIES[0]))
        with pytest.raises(ConfigurationError, match="duplicate"):
            service.register("cam", QuerySpec("mine", QUERIES[1]))
        service.cancel("cam", "mine")
        with pytest.raises(ConfigurationError, match="duplicate"):
            service.register("cam", QuerySpec("mine", QUERIES[1]))
        # A failed registration must not leak the tenant's quota slot.
        assert service.admission.usage()["default"]["live_queries"] == 0

    def test_register_on_ended_stream_rejected(self):
        service = QueryService(default_zoo(seed=3), clip_batch=1000)
        service.add_stream("cam", VIDEO)
        service.register("cam", QUERIES[0])
        while service.step("cam"):
            pass
        with pytest.raises(ConfigurationError, match="ended"):
            service.register("cam", QUERIES[1])


class TestCancellation:
    def test_cancel_pushes_final_and_frees_the_slot(self):
        service = QueryService(default_zoo(seed=3), clip_batch=8)
        service.add_stream("cam", VIDEO)
        client = ServiceClient(service)
        name = client.register("cam", QUERIES[0])

        async def main():
            queue = client.subscribe("cam", name)
            service.step("cam")
            service.step("cam")
            result = client.cancel("cam", name)
            events = []
            while not queue.empty():
                events.append(queue.get_nowait())
            return result, events

        result, events = asyncio.run(main())
        assert events[-1].kind == EVENT_FINAL
        assert events[-1].result is result
        assert service.admission.usage()["default"]["live_queries"] == 0
        assert service.result("cam", name) is result

    def test_retired_queries_leave_no_entries_behind(self):
        """A long-running service with query churn keeps per-query state
        for its live queries only: a query's meter and push entries go
        with its final event, on a cancel and at the end of the stream."""
        service = QueryService(default_zoo(seed=3), clip_batch=8)
        service.add_stream("cam", VIDEO)
        kept = service.register("cam", QUERIES[0])
        service.subscribe("cam", kept)
        for i in range(200):
            name = service.register("cam", QuerySpec(f"churn{i}", QUERIES[1]))
            queue = service.subscribe("cam", name)
            if i % 20 == 0:
                service.step("cam")
            service.cancel("cam", name)
            events = [queue.get_nowait() for _ in range(queue.qsize())]
            assert events[-1].kind == EVENT_FINAL
        live = {("cam", kept)}
        assert set(service._charged) == set(service._subscribers) == live
        while service.step("cam"):
            pass
        assert service._charged == service._subscribers == {}

    def test_cancel_other_tenants_query_rejected(self):
        service = QueryService(default_zoo(seed=3))
        service.add_stream("cam", VIDEO)
        owner = ServiceClient(service, tenant="owner")
        thief = ServiceClient(service, tenant="thief")
        name = owner.register("cam", QUERIES[0])
        with pytest.raises(ConfigurationError, match="belongs to tenant"):
            thief.cancel("cam", name)


class TestAdmissionLedger:
    def test_ledgers_equal_the_fresh_invocations_after_every_step(self):
        """Each tenant's ledger is its queries' fresh model invocations —
        read off the live counters, it must equal what a full stats
        snapshot says, step by step and across a cancel."""
        service = QueryService(default_zoo(seed=3), clip_batch=8)
        service.add_stream("cam", VIDEO)
        either = CompoundQuery.disjunction(
            [Query(objects=["faucet"]), Query(action="washing dishes")]
        )
        owners = {
            service.register("cam", QUERIES[0], tenant="acme"): "acme",
            service.register("cam", either, tenant="acme"): "acme",
            service.register("cam", QUERIES[1], tenant="zenith"): "zenith",
        }
        fresh = dict.fromkeys(owners, 0)
        cancelled = next(iter(owners))
        steps = 0
        while service.step("cam"):
            steps += 1
            fleet = service._stream("cam").fleet
            if fleet.live:  # the last step finishes the stream
                for name in fleet.live:
                    stats = fleet.context(name).snapshot()
                    fresh[name] = (
                        stats.detector_invocations - stats.detector_cache_hits
                        + stats.recognizer_invocations
                        - stats.recognizer_cache_hits
                    )
                for tenant in ("acme", "zenith"):
                    assert service.admission.units_used(tenant) == sum(
                        fresh[name] for name in owners if owners[name] == tenant
                    )
            if steps == 5:
                service.cancel("cam", cancelled)
        assert steps > 5 and all(fresh.values())


class TestHealth:
    def test_health_reports_streams_stats_and_admission(self):
        service = QueryService(default_zoo(seed=3), clip_batch=8)
        service.add_stream("cam", VIDEO)
        name = service.register("cam", QUERIES[0], tenant="acme")
        service.step("cam")
        payload = service.health()
        stream = payload["streams"]["cam"]
        assert stream["position"] == 8
        assert stream["live"] == [name]
        query_stats = stream["queries"][name]
        assert query_stats["clips_processed"] == 8
        # The same counters the fault-tolerance layer maintains ride in
        # the payload — the service surfaces them, it does not rename.
        for counter in (
            "model_retries", "model_giveups", "sequences_degraded",
            "detector_cache_hits",
        ):
            assert counter in query_stats
            assert counter in payload["totals"]
        assert payload["admission"]["acme"]["live_queries"] == 1
        assert payload["admission"]["acme"]["units_used"] > 0
        # The rate-sharing topology rides per stream (None when sharing is
        # disabled, e.g. under a fault-tolerant config); a group's counters
        # are booked to its owner's query stats.
        assert stream["rate_sharing"] == {"groups": 1.0, "members": 1.0}

    def test_bad_clip_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="clip_batch"):
            QueryService(default_zoo(seed=3), clip_batch=0)
