"""The demand-driven models hand out the eager models' arrays, bit for bit.

First touch draws the firing indicator and keeps the generator's state; the
scores are drawn from that state when somebody asks.  Whatever is asked
first, of whichever label, after a pickle round trip or a ``cache_clear()``,
from one thread or two, every array must equal what
``tests/reference/simulated_eager.py`` — the synthesis the models had while
they drew everything at first touch — produces.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.profiles import I3D, MASK_RCNN
from repro.detectors.simulated import (
    SimulatedActionRecognizer,
    SimulatedObjectDetector,
)
from repro.detectors.zoo import default_zoo, ideal_zoo, yolo_zoo
from tests.conftest import make_kitchen_video, outage_video
from tests.reference.simulated_eager import detector_scores, recognizer_scores
from tests.reference.tracker_per_frame import observations_per_frame

ZOOS = {"default": default_zoo, "yolo": yolo_zoo, "ideal": ideal_zoo}
VIDEOS = {
    "plain": make_kitchen_video(seed=23, duration_s=120.0, video_id="lazyvid"),
    "outage": outage_video(((10.0, 25.0), (200.0, 230.0)), seed=29),
}
#: A label with ground truth, one correlated with it, one nothing carries.
LABELS = {
    "object": ("faucet", "person", "zebra"),
    "action": ("washing dishes", "yoga"),
}
SEEDS = (0, 3)

_ORACLE: dict[tuple, np.ndarray] = {}


def oracle(zoo_name: str, seed: int, video_name: str, kind: str, label: str):
    key = (zoo_name, seed, video_name, kind, label)
    if key not in _ORACLE:
        zoo = ZOOS[zoo_name](seed=seed)
        video = VIDEOS[video_name]
        eager, model = (
            (detector_scores, zoo.detector)
            if kind == "object"
            else (recognizer_scores, zoo.recognizer)
        )
        _ORACLE[key] = eager(model.profile, seed, video.meta, video.truth, label)
    return _ORACLE[key]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def calls(draw):
    """One call on one model, or a whole-zoo event between calls."""
    what = draw(st.sampled_from(
        ["firing_video", "score_video", "score_clip", "score_unit",
         "pickle", "cache_clear"]
    ))
    kind = draw(st.sampled_from(["object", "action"]))
    label = draw(st.sampled_from(LABELS[kind]))
    return what, kind, label, draw(st.integers(0, 10_000))


@settings(max_examples=120, deadline=None)
@given(
    zoo_name=st.sampled_from(sorted(ZOOS)),
    seed=st.sampled_from(SEEDS),
    video_name=st.sampled_from(sorted(VIDEOS)),
    program=st.lists(calls(), min_size=1, max_size=14),
)
def test_any_interleaving_equals_the_eager_models(
    zoo_name, seed, video_name, program
):
    zoo = ZOOS[zoo_name](seed=seed)
    video = VIDEOS[video_name]
    meta, truth = video.meta, video.truth
    for what, kind, label, pick in program:
        if what == "pickle":
            zoo = pickle.loads(pickle.dumps(zoo))
            continue
        if what == "cache_clear":
            zoo.detector.cache_clear()
            zoo.recognizer.cache_clear()
            continue
        model = zoo.detector if kind == "object" else zoo.recognizer
        expected = oracle(zoo_name, seed, video_name, kind, label)
        if what == "firing_video":
            firing = model.firing_video(meta, truth, label)
            assert firing.dtype == bool
            assert same_bits(firing, expected >= model.threshold)
        elif what == "score_video":
            assert same_bits(model.score_video(meta, truth, label), expected)
        elif what == "score_clip":
            clip_id = pick % meta.n_clips
            units = len(expected) // meta.n_clips
            assert same_bits(
                model.score_clip(meta, truth, label, clip_id),
                expected[clip_id * units : (clip_id + 1) * units],
            )
        else:
            unit = pick % len(expected)
            score_unit = (
                model.score_frame if kind == "object" else model.score_shot
            )
            assert score_unit(meta, truth, label, unit) == expected[unit]


@pytest.mark.parametrize("video_name", sorted(VIDEOS))
@pytest.mark.parametrize("zoo_name", sorted(ZOOS))
def test_scores_drawn_after_a_pickle_round_trip(zoo_name, video_name):
    """The copy carries the indicator and the generator's state, not the
    scores: what it then draws is what the original would have drawn."""
    video = VIDEOS[video_name]
    zoo = ZOOS[zoo_name](seed=3)
    for kind, labels in LABELS.items():
        model = zoo.detector if kind == "object" else zoo.recognizer
        for label in labels:
            model.firing_video(video.meta, video.truth, label)
    copy = pickle.loads(pickle.dumps(zoo))
    for kind, labels in LABELS.items():
        for label in reversed(labels):
            expected = oracle(zoo_name, 3, video_name, kind, label)
            for line_up in (copy, zoo):
                model = (
                    line_up.detector if kind == "object" else line_up.recognizer
                )
                scores = model.score_video(video.meta, video.truth, label)
                assert same_bits(scores, expected)
                assert same_bits(
                    model.firing_video(video.meta, video.truth, label),
                    scores >= model.threshold,
                )


def test_outage_units_never_fire():
    video = VIDEOS["outage"]
    zoo = default_zoo(seed=3)
    firing = zoo.detector.firing_video(video.meta, video.truth, "faucet")
    dark = np.zeros(len(firing), dtype=bool)
    for span in video.truth.outage_frames:
        dark[span.start : span.end + 1] = True
    assert dark.any() and not firing[dark].any()
    # ... while the indicator was drawn through them, so the scores outside
    # the outage are the ones an uninterrupted recording would have got.
    assert firing[~dark].any()


@pytest.mark.parametrize(
    "build, label",
    [
        (lambda: SimulatedObjectDetector(MASK_RCNN, seed=None), "faucet"),
        (lambda: SimulatedActionRecognizer(I3D, seed=None), "washing dishes"),
    ],
)
def test_an_unseeded_model_stays_self_consistent(build, label):
    video = VIDEOS["plain"]
    model = build()
    firing = model.firing_video(video.meta, video.truth, label)
    scores = model.score_video(video.meta, video.truth, label)
    assert same_bits(firing, scores >= model.threshold)
    assert model.score_video(video.meta, video.truth, label) is scores
    assert model.firing_video(video.meta, video.truth, label) is firing


@pytest.mark.parametrize("first", ["firing_video", "score_video"])
def test_two_threads_released_on_one_record(first):
    """A zoo is shared by ``executor="thread"``: two callers racing on one
    record draw from the same kept state, so both get the oracle's array
    (a live generator would hand the second caller the *next* variates)."""
    video = VIDEOS["plain"]
    expected = oracle("default", 3, "plain", "object", "faucet")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            detector = default_zoo(seed=3).detector
            getattr(detector, first)(video.meta, video.truth, "person")
            barrier = threading.Barrier(2, timeout=10.0)
            got: list[np.ndarray] = []

            def worker():
                barrier.wait()
                got.append(
                    detector.score_video(video.meta, video.truth, "faucet")
                )

            threads = [threading.Thread(target=worker) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            assert len(got) == 2
            assert all(same_bits(scores, expected) for scores in got)
            assert same_bits(
                detector.firing_video(video.meta, video.truth, "faucet"),
                expected >= detector.threshold,
            )
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("label", ["faucet", "person", "zebra"])
@pytest.mark.parametrize("video_name", sorted(VIDEOS))
@pytest.mark.parametrize("zoo_name", sorted(ZOOS))
def test_tracker_columns_equal_the_per_frame_oracle(zoo_name, video_name, label):
    """The tracker draws scores for its alarm frames only; the oracle draws
    them for every frame of the video and keeps those."""
    video = VIDEOS[video_name]
    tracker = ZOOS[zoo_name](seed=3).tracker
    columns = tracker.tracks_in_video(video.meta, video.truth, label)
    triples = list(zip(*(column.tolist() for column in columns)))
    assert triples == observations_per_frame(
        tracker.profile, 3, 0.05, video.meta, video.truth, label
    )
