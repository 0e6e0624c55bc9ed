"""Shared fixtures: small synthetic videos, model zoos, ingested engines.

Everything here is deterministic (fixed seeds) and deliberately small so
the whole suite stays fast; the benchmark harness exercises realistic
scales.
"""

from __future__ import annotations

import pytest

from repro.core.engine import OfflineEngine
from repro.core.query import Query
from repro.core.session import StreamSession
from repro.detectors.zoo import default_zoo, ideal_zoo
from repro.video.stream import ClipStream
from repro.video.synthesis import LabeledVideo, SceneSpec, TrackSpec, synthesize_video


def make_kitchen_video(
    seed: int = 7, duration_s: float = 300.0, video_id: str = "kitchen"
) -> LabeledVideo:
    """The canonical test scene: washing dishes + faucet + person."""
    spec = SceneSpec(
        video_id=video_id,
        duration_s=duration_s,
        tracks=(
            TrackSpec(
                label="washing dishes", kind="action",
                occupancy=0.25, mean_duration_s=20.0,
            ),
            TrackSpec(
                label="faucet", kind="object",
                correlate_with="washing dishes", correlation=0.9,
                occupancy=0.05,
            ),
            TrackSpec(
                label="person", kind="object",
                correlate_with="washing dishes", correlation=0.97,
                occupancy=0.3,
            ),
        ),
    )
    return synthesize_video(spec, seed=seed)


def drive_session(
    zoo, query, video, config=None, *, stream=None, short_circuit=True, **build
):
    """One :class:`StreamSession` advanced over ``stream`` (the whole video
    by default) and finished: what ``OnlineEngine.run`` does, with the
    knobs the engine leaves on the session — ``dynamic``,
    ``k_crit_overrides``, ``record_trace``, ``context``, ``short_circuit``
    and a bounded stream — open to the test."""
    session = StreamSession.for_query(zoo, query, video, config, **build)
    session.advance(
        stream if stream is not None else ClipStream(video.meta),
        short_circuit=short_circuit,
    )
    return session.finish()


def outage_video(outages=((120.0, 180.0),), seed: int = 17):
    spec = SceneSpec(
        video_id=f"outage-{seed}",
        duration_s=360.0,
        tracks=(
            TrackSpec(label="washing dishes", kind="action",
                      occupancy=0.25, mean_duration_s=20.0),
            TrackSpec(label="faucet", kind="object",
                      correlate_with="washing dishes", correlation=0.9,
                      occupancy=0.05),
        ),
        outages_s=tuple(outages),
    )
    return synthesize_video(spec, seed=seed)


@pytest.fixture(scope="session")
def kitchen_video() -> LabeledVideo:
    return make_kitchen_video()


@pytest.fixture(scope="session")
def kitchen_query() -> Query:
    return Query(objects=["faucet"], action="washing dishes")


@pytest.fixture(scope="session")
def zoo():
    """One shared simulated MaskRCNN+I3D+CenterTrack line-up (score caches
    make sharing it across tests a large speed-up; it is deterministic)."""
    return default_zoo(seed=3)


@pytest.fixture(scope="session")
def perfect_zoo():
    return ideal_zoo(seed=3)


@pytest.fixture(scope="session")
def kitchen_engine(kitchen_video, zoo) -> OfflineEngine:
    """An offline engine with the kitchen video ingested."""
    engine = OfflineEngine(zoo=zoo)
    engine.ingest(
        kitchen_video,
        object_labels=["faucet", "person"],
        action_labels=["washing dishes"],
    )
    return engine
