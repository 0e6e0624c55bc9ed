"""Checkpoint/resume under fault injection.

Fault draws are keyed per ``(method, video, label, clip, attempt)``, so a
session resumed from a checkpoint sees — for the clips it has not yet
processed — exactly the faults the uninterrupted run saw.  Combined with
the v4 checkpoint carrying the degradation state (degraded clip list +
held estimates), a split run must stay bit-identical to a full one even
while models flap.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import OnlineConfig
from repro.core.engine import OnlineEngine
from repro.core.query import CompoundQuery, Query
from repro.core.session import StreamSession
from repro.detectors.faults import FaultProfile, faulty_zoo
from repro.detectors.zoo import default_zoo
from repro.video.stream import ClipStream

from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=59, duration_s=240.0, video_id="ckptfaultvid")
QUERY = Query(objects=["faucet"], action="washing dishes")
COMPOUND = CompoundQuery.disjunction(
    [
        Query(objects=["faucet"], action="washing dishes"),
        Query(action="washing dishes"),
    ]
)

#: Transient-heavy regime with a shallow retry budget, so some clips
#: degrade — the checkpoint must carry that state, not just survive it.
PROFILE = FaultProfile(
    name="ckpt-flaky", transient_rate=0.15, timeout_rate=0.05,
    nan_rate=0.03, seed=23,
)


def armed_config(policy: str = "hold_last_estimate") -> OnlineConfig:
    # cache_detections=False: the serial score_clip path keys fault draws
    # per clip, which is what makes resume see the same fault tape.
    return OnlineConfig(
        cache_detections=False, retry_max_attempts=2, failure_policy=policy,
    )


def fresh_zoo():
    """Fresh injector state per run — attempt counters are process state,
    so equivalence runs must not share them."""
    return faulty_zoo(default_zoo(seed=4), PROFILE)


def split_run(build_session, split_at: int):
    stream = ClipStream(VIDEO.meta)
    first = build_session()
    for _ in range(split_at):
        first.process(stream.next())
    state = json.loads(json.dumps(first.state_dict()))
    resumed = build_session().load_state_dict(state)
    while not stream.end():
        resumed.process(stream.next())
    return resumed.finish()


class TestFaultyCheckpointEquivalence:
    @pytest.mark.parametrize("split_at", [1, 13, 45])
    @pytest.mark.parametrize("policy", ["hold_last_estimate", "skip_predicate"])
    def test_svaqd_split_is_bit_identical(self, split_at, policy):
        full = OnlineEngine(fresh_zoo(), armed_config(policy)).run(QUERY, VIDEO)
        zoo = fresh_zoo()
        split = split_run(
            lambda: StreamSession.for_query(
                zoo, QUERY, VIDEO, armed_config(policy), dynamic=True
            ),
            split_at,
        )
        assert full.degraded_clips, "profile injected no degradations"
        assert split.sequences == full.sequences
        assert split.degraded_clips == full.degraded_clips
        assert split.final_rates == pytest.approx(full.final_rates)
        assert [e.positive for e in split.evaluations] == [
            e.positive for e in full.evaluations[split_at:]
        ]

    @pytest.mark.parametrize("split_at", [7, 30])
    def test_svaq_split_is_bit_identical(self, split_at):
        config = armed_config("skip_predicate")
        full = OnlineEngine(fresh_zoo(), config).run(QUERY, VIDEO, "svaq")
        zoo = fresh_zoo()
        split = split_run(
            lambda: StreamSession.for_query(
                zoo, QUERY, VIDEO, config, dynamic=False
            ),
            split_at,
        )
        assert split.sequences == full.sequences
        assert split.degraded_clips == full.degraded_clips

    @pytest.mark.parametrize("split_at", [5, 28])
    def test_compound_split_is_bit_identical(self, split_at):
        config = armed_config("hold_last_estimate")
        full = OnlineEngine(fresh_zoo(), config).run(COMPOUND, VIDEO)
        zoo = fresh_zoo()
        split = split_run(
            lambda: StreamSession.for_query(zoo, COMPOUND, VIDEO, config),
            split_at,
        )
        assert split.sequences == full.sequences
        assert split.degraded_clips == full.degraded_clips


class TestCheckpointDegradationState:
    def run_prefix(self, n_clips: int):
        zoo = faulty_zoo(
            default_zoo(seed=4),
            FaultProfile(name="dead", dead_labels=("faucet",), seed=23),
        )
        session = StreamSession.for_query(
            zoo, QUERY, VIDEO, armed_config("hold_last_estimate"), dynamic=True
        )
        stream = ClipStream(VIDEO.meta)
        for _ in range(n_clips):
            session.process(stream.next())
        return session

    def test_state_carries_degradation_keys(self):
        state = self.run_prefix(10).state_dict()
        assert state["version"] == 7
        assert state["degraded_clips"], "dead label should degrade clips"
        assert "held" in state
