"""Simulated tracker: stable ids, coverage, spurious tracks."""

from __future__ import annotations

import pytest

from repro.detectors.profiles import CENTERTRACK, IDEAL_TRACKER, MASK_RCNN
from repro.detectors.tracker import SimulatedTracker
from repro.errors import DetectorError
from repro.video.model import ClipView
from tests.conftest import make_kitchen_video, outage_video
from tests.reference.tracker_per_frame import observations_per_frame

VIDEO = make_kitchen_video(seed=13, duration_s=600.0, video_id="trackvid")


def all_tracked(tracker, label):
    out = []
    for clip_id in VIDEO.meta.clip_ids():
        out.extend(
            tracker.tracks_in_clip(
                VIDEO.meta, VIDEO.truth, label, ClipView(VIDEO.meta, clip_id)
            )
        )
    return out


class TestTracking:
    def test_observations_inside_clip_bounds(self):
        tracker = SimulatedTracker(CENTERTRACK, seed=0)
        clip = ClipView(VIDEO.meta, 3)
        for obs in tracker.tracks_in_clip(VIDEO.meta, VIDEO.truth, "faucet", clip):
            assert clip.frames.start <= obs.frame <= clip.frames.end
            assert obs.label == "faucet"
            assert 0.0 <= obs.score <= 1.0

    def test_ids_stable_within_episode(self):
        tracker = SimulatedTracker(IDEAL_TRACKER, seed=0, id_switch_rate=0.0)
        observations = all_tracked(tracker, "faucet")
        # Ideal tracker, no switches: per episode one id; id never toggles
        # back and forth across frames.
        by_frame: dict[int, set[int]] = {}
        for obs in observations:
            by_frame.setdefault(obs.frame, set()).add(obs.track_id)
        episodes = VIDEO.truth.object_frames("faucet")
        for episode in episodes:
            ids = set()
            for frame in episode:
                ids |= by_frame.get(frame, set())
            # one ground-truth instance set can carry a couple instances,
            # but ids must not proliferate per frame
            assert 1 <= len(ids) <= 4

    def test_ideal_tracker_covers_every_present_frame(self):
        tracker = SimulatedTracker(IDEAL_TRACKER, seed=0, id_switch_rate=0.0)
        covered = {obs.frame for obs in all_tracked(tracker, "faucet")}
        expected = {
            f
            for f in VIDEO.truth.object_frames("faucet").points()
            if f < VIDEO.meta.usable_frames
        }
        assert expected <= covered

    def test_id_switches_create_new_ids(self):
        never = SimulatedTracker(CENTERTRACK, seed=0, id_switch_rate=0.0)
        always = SimulatedTracker(CENTERTRACK, seed=0, id_switch_rate=1.0)
        ids_never = {o.track_id for o in all_tracked(never, "faucet")}
        ids_always = {o.track_id for o in all_tracked(always, "faucet")}
        assert len(ids_always) > len(ids_never)

    def test_deterministic(self):
        a = SimulatedTracker(CENTERTRACK, seed=0)
        b = SimulatedTracker(CENTERTRACK, seed=0)
        clip = ClipView(VIDEO.meta, 2)
        assert a.tracks_in_clip(VIDEO.meta, VIDEO.truth, "faucet", clip) == (
            b.tracks_in_clip(VIDEO.meta, VIDEO.truth, "faucet", clip)
        )

    def test_spurious_tracks_outside_truth(self):
        tracker = SimulatedTracker(CENTERTRACK, seed=0)
        present = set(VIDEO.truth.object_frames("faucet").points())
        spurious = [
            o for o in all_tracked(tracker, "faucet") if o.frame not in present
        ]
        total_absent = VIDEO.meta.usable_frames - len(
            [f for f in present if f < VIDEO.meta.usable_frames]
        )
        rate = len(spurious) / max(1, total_absent)
        assert 0.0 < rate < 0.06  # around the profile's fpr

    def test_vocabulary_and_profile_validation(self):
        with pytest.raises(DetectorError):
            SimulatedTracker(MASK_RCNN)  # wrong profile kind
        tracker = SimulatedTracker(
            CENTERTRACK, seed=0, vocabulary=frozenset({"faucet"})
        )
        with pytest.raises(DetectorError):
            tracker.tracks_in_clip(
                VIDEO.meta, VIDEO.truth, "zebra", ClipView(VIDEO.meta, 0)
            )


class TestTracksInVideo:
    """The per-video columns are the one store: equal to the per-frame
    oracle and to the per-clip slices, triple for triple and in order."""

    CASES = [
        (CENTERTRACK, 0.05, VIDEO, "faucet"),
        (CENTERTRACK, 0.0, VIDEO, "person"),
        (CENTERTRACK, 1.0, VIDEO, "faucet"),
        (IDEAL_TRACKER, 0.05, VIDEO, "person"),
        # no ground truth for the label: spurious tracks only
        (CENTERTRACK, 0.05, VIDEO, "zebra"),
        # nothing fires at all: empty columns
        (IDEAL_TRACKER, 0.05, VIDEO, "zebra"),
        (CENTERTRACK, 1.0, outage_video(((10.0, 40.0), (300.0, 360.0))), "faucet"),
    ]

    @pytest.mark.parametrize("profile, switch_rate, video, label", CASES)
    def test_columns_equal_oracle_and_clip_slices(
        self, profile, switch_rate, video, label
    ):
        tracker = SimulatedTracker(profile, seed=4, id_switch_rate=switch_rate)
        columns = tracker.tracks_in_video(video.meta, video.truth, label)
        triples = list(zip(*(column.tolist() for column in columns)))
        assert triples == observations_per_frame(
            profile, 4, switch_rate, video.meta, video.truth, label
        )
        per_clip = [
            (obs.frame, obs.track_id, obs.score)
            for clip_id in video.meta.clip_ids()
            for obs in tracker.tracks_in_clip(
                video.meta, video.truth, label, ClipView(video.meta, clip_id)
            )
        ]
        assert triples == per_clip
        nothing_fires = profile is IDEAL_TRACKER and label == "zebra"
        assert bool(triples) != nothing_fires

    def test_outage_frames_hold_no_observation(self):
        video = outage_video()
        tracker = SimulatedTracker(CENTERTRACK, seed=4)
        frames = tracker.tracks_in_video(video.meta, video.truth, "faucet").frames
        assert len(frames)
        assert not any(f in video.truth.outage_frames for f in frames.tolist())

    def test_charges_per_clip_call_only(self):
        from repro.detectors.cost import CostMeter

        meter = CostMeter()
        tracker = SimulatedTracker(CENTERTRACK, seed=4, cost_meter=meter)
        tracker.tracks_in_video(VIDEO.meta, VIDEO.truth, "faucet")
        assert meter.units() == 0
        tracker.tracks_in_clip(
            VIDEO.meta, VIDEO.truth, "faucet", ClipView(VIDEO.meta, 0)
        )
        assert meter.units() == VIDEO.meta.geometry.frames_per_clip

    def test_vocabulary_checked(self):
        tracker = SimulatedTracker(
            CENTERTRACK, seed=0, vocabulary=frozenset({"faucet"})
        )
        with pytest.raises(DetectorError):
            tracker.tracks_in_video(VIDEO.meta, VIDEO.truth, "zebra")
