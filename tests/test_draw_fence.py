"""A fence that needs no clock: how many units the models are asked to
*score* (ROADMAP item 10).

The online algorithms count above-threshold units (Eq. 1–2) and read no
score; ingestion reads recogniser scores for its clip score tables and the
tracker's scores for its observations.  ``noise.conditional_scores`` is the
one place a score is drawn, so a counting wrapper on that name — as
``simulated.py`` and ``tracker.py`` import it — says exactly how much Beta
sampling a run paid for.  The numbers below repeat digit for digit; a change
that puts whole-video sampling back on the online path fails here without a
benchmark run.
"""

from __future__ import annotations

import pytest

from repro.core.query import CompoundQuery, Query
from repro.core.scheduler import FleetRun, QuerySpec
from repro.core.svaq import SVAQ
from repro.core.svaqd import SVAQD
from repro.detectors import noise, simulated, tracker
from repro.detectors.profiles import CENTERTRACK, I3D
from repro.detectors.zoo import default_zoo
from repro.service import QueryService
from repro.storage.ingest import ingest_video
from repro.video.stream import ClipStream
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=59, duration_s=240.0, video_id="fencevid")
WASHING = "washing dishes"
SPECS = [
    QuerySpec("faucet", Query(objects=["faucet"], action=WASHING)),
    QuerySpec(
        "person", Query(objects=["person"], action=WASHING), algorithm="svaq"
    ),
    QuerySpec("both", Query(objects=["faucet", "person"], action=WASHING)),
    QuerySpec(
        "either",
        CompoundQuery((
            (Query(objects=["faucet"]), Query(objects=["person"])),
            (Query(actions=[WASHING]),),
        )),
    ),
]


@pytest.fixture
def drawn(monkeypatch):
    """``(module, score sharpness, units)`` of every score draw made."""
    calls: list[tuple[str, float, int]] = []

    def counting(module: str):
        def conditional_scores(rng, firing, present, threshold, sharpness):
            calls.append((module, sharpness, len(firing)))
            return noise.conditional_scores(
                rng, firing, present, threshold, sharpness
            )

        return conditional_scores

    monkeypatch.setattr(simulated, "conditional_scores", counting("simulated"))
    monkeypatch.setattr(tracker, "conditional_scores", counting("tracker"))
    return calls


def test_svaq_scores_nothing(drawn):
    result = SVAQ(default_zoo(seed=3), SPECS[0].query).run(VIDEO)
    assert result.sequences
    assert drawn == []


def test_svaqd_scores_nothing(drawn):
    result = SVAQD(default_zoo(seed=3), SPECS[0].query).run(VIDEO)
    assert result.sequences
    assert drawn == []


def test_a_four_query_fleet_scores_nothing(drawn):
    fleet = FleetRun(default_zoo(seed=3), VIDEO, queries=SPECS)
    for clip in ClipStream(VIDEO.meta):
        fleet.advance([clip])
    run = fleet.finish()
    assert all(run[spec.name].sequences for spec in SPECS)
    assert drawn == []


def test_a_service_step_loop_scores_nothing(drawn):
    service = QueryService(default_zoo(seed=3), clip_batch=4)
    service.add_stream("cam", VIDEO)
    for spec in SPECS[:2]:
        service.register("cam", spec)
    service.step("cam")
    service.register("cam", SPECS[2])  # mid-chunk
    while not service.done("cam"):
        service.step("cam")
    assert service.result("cam", "faucet").sequences
    assert drawn == []


def test_ingest_scores_what_its_tables_hold(drawn):
    """Recogniser scores for the action tables, tracker scores for the
    object tables — per object label the episode frames, then the alarm
    frames alone — and no detector score at all: object sequences are an
    SVAQD run over counts."""
    objects, actions = ["faucet", "person", "zebra"], [WASHING, "yoga"]
    ingest_video(VIDEO, default_zoo(seed=3), objects, actions)
    frames = VIDEO.meta.usable_frames
    assert (frames, VIDEO.meta.n_shots) == (6000, 600)

    by_model = [call for call in drawn if call[0] == "simulated"]
    assert by_model == [("simulated", I3D.score_sharpness, 600)] * len(actions)

    by_tracker = [units for module, _s, units in drawn if module == "tracker"]
    assert len(by_tracker) + len(by_model) == len(drawn)
    assert {s for module, s, _u in drawn if module == "tracker"} == {
        CENTERTRACK.score_sharpness
    }
    episodes = {
        label: [
            min(frames - 1, episode.end) - max(0, episode.start) + 1
            for instance in VIDEO.truth.object_instances(label)
            for episode in instance
        ]
        for label in objects
    }
    assert episodes == {
        "faucet": [290, 1037, 1085, 439, 113, 337, 58, 313, 196],
        "person": [302, 1114, 1052, 481, 118, 366, 342, 234, 94],
        "zebra": [],
    }
    alarms = {"faucet": 64, "person": 22, "zebra": 85}
    assert by_tracker == [
        units
        for label in objects
        for units in (*episodes[label], alarms[label])
    ]
    # 8,142 of the 18,000 frames tracked and 1,200 shots: the whole-video
    # background draws (3 × 6,000 for the tracker, as many again for the
    # detector) are what this fence keeps out.
    assert sum(by_tracker) == 8142
