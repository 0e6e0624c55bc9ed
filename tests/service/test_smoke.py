"""The streaming-service lifecycle end to end, in one process.

Two video streams, four standing queries from one tenant, incremental
result push, one mid-stream cancellation, then a snapshot → JSON →
resume migration onto a fresh service (new zoo objects) that finishes the
runs.  Every leg asserts:

* every query's incremental pushes, across *both* processes, reassemble
  into exactly its final result (nothing lost, nothing doubled by the
  migration);
* the snapshotted source service is frozen and refuses to step;
* admission slots drain back to zero when the streams end.

The plain leg also asserts that completed queries are result-identical
to the batch :class:`~repro.core.scheduler.MultiQueryScheduler` run on the
same specs, and pins the tenant's admission units.  The chaos leg runs a
fault-injected zoo under an armed config: equality with the batch run no
longer holds (fault injection is call-order dependent and the resumed
process re-seeds its generator), so it asserts the order-independent
invariants only.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.core.scheduler import MultiQueryScheduler, QuerySpec
from repro.detectors.faults import fault_profile, faulty_zoo
from repro.detectors.zoo import default_zoo
from repro.errors import ConfigurationError
from repro.service import QueryService, ServiceClient
from repro.service.service import EVENT_FINAL
from repro.video.synthesis import SceneSpec, TrackSpec, synthesize_video

ACTION = "crossing"
TENANT = "smoke"
SEED = 11

#: Fresh model units the plain leg charges its tenant, both processes.
PLAIN_UNITS_USED = 329


def scene(video_id: str, duration_s: float, seed: int):
    tracks = (
        TrackSpec(label=ACTION, kind="action", occupancy=0.2,
                  mean_duration_s=15.0),
        TrackSpec(label="car", kind="object", occupancy=0.15,
                  mean_duration_s=8.0, correlate_with=ACTION,
                  correlation=0.85),
        TrackSpec(label="person", kind="object", occupancy=0.25,
                  mean_duration_s=10.0),
    )
    return synthesize_video(
        SceneSpec(video_id=video_id, duration_s=duration_s, tracks=tracks),
        seed=seed,
    )


VIDEOS = {"north": scene("north", 240.0, SEED), "south": scene("south", 180.0, SEED + 1)}
#: (stream, spec): one SVAQ query rides along so the static chunk path
#: is exercised too.
SPECS = [
    ("north", QuerySpec("cars", Query(objects=["car"], action=ACTION))),
    ("north", QuerySpec("both", Query(objects=["car", "person"], action=ACTION))),
    ("north", QuerySpec("cut", Query(objects=["person"], action=ACTION),
                        algorithm="svaq")),
    ("south", QuerySpec("cars", Query(objects=["car"], action=ACTION))),
]


def build_zoo(profile: str, seed: int):
    zoo = default_zoo(seed=3)
    if profile == "none":
        return zoo
    return faulty_zoo(zoo, fault_profile(profile).with_seed(seed))


def build_config(profile: str) -> OnlineConfig:
    if profile == "none":
        return OnlineConfig()
    return OnlineConfig(
        cache_detections=False,
        retry_max_attempts=4,
        failure_policy="hold_last_estimate",
    )


def drain(queues):
    """Pop every pending event: {key: [events]}."""
    out = {}
    for key, queue in queues.items():
        events = out.setdefault(key, [])
        while not queue.empty():
            events.append(queue.get_nowait())
    return out


@pytest.mark.parametrize("profile", ["none", "chaos"])
def test_register_cancel_migrate_and_finish(profile):
    config = build_config(profile)
    service = QueryService(build_zoo(profile, SEED), config, clip_batch=4)
    for name, video in VIDEOS.items():
        service.add_stream(name, video)
    client = ServiceClient(service, tenant=TENANT)
    queues = {}
    for stream, spec in SPECS:
        client.register(stream, spec)
        queues[(stream, spec.name)] = client.subscribe(stream, spec.name)

    # Advance both streams, then cancel one query mid-stream.
    for _ in range(2):
        for stream in service.streams():
            service.step(stream)
    cancelled = client.cancel("north", "cut")
    service.step("north")
    pushed = {
        key: [e.interval for e in events if e.interval is not None]
        for key, events in drain(queues).items()
    }

    # Migrate: one JSON bundle into a fresh service and zoo.
    bundle = json.loads(json.dumps(service.snapshot().to_dict()))
    with pytest.raises(ConfigurationError, match="snapshotted"):
        service.step("north")
    resumed = QueryService.resume(
        bundle, VIDEOS, build_zoo(profile, SEED + 7), config, clip_batch=4
    )
    client.rebind(resumed)
    for stream, spec in SPECS:
        if spec.name in resumed.live(stream):
            queues[(stream, spec.name)] = client.subscribe(stream, spec.name)
    asyncio.run(resumed.serve())
    finals = {("north", "cut"): cancelled}
    for key, events in drain(queues).items():
        pushed[key].extend(e.interval for e in events if e.interval is not None)
        for event in events:
            if event.kind == EVENT_FINAL:
                finals[key] = event.result

    assert sorted(finals) == sorted((stream, spec.name) for stream, spec in SPECS)
    for key, result in finals.items():
        got = [(iv.start, iv.end) for iv in pushed[key]]
        assert got == result.sequences.as_tuples(), key
    usage = resumed.admission.usage()[TENANT]
    assert usage["live_queries"] == 0
    totals = resumed.health()["totals"]
    if profile == "none":
        for stream, video in VIDEOS.items():
            specs = [s for st, s in SPECS if st == stream and s.name != "cut"]
            reference = MultiQueryScheduler(
                default_zoo(seed=3), specs, config
            ).run(video)
            for spec in specs:
                assert finals[(stream, spec.name)].sequences == (
                    reference[spec.name].sequences
                ), f"{stream}/{spec.name} diverged from the batch run"
        assert usage["units_used"] == PLAIN_UNITS_USED
        assert totals["model_retries"] == 0
    else:
        assert totals["model_retries"] > 0
