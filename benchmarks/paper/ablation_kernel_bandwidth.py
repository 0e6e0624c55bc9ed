"""Ablation — SVAQD's kernel bandwidth ``u`` under concept drift (§3.3).

A surveillance-style stream whose background object traffic jumps between
phases (the paper's rush-hour example).  A small bandwidth adapts fast but
estimates noisily; a huge one barely adapts within the stream.  Expected
shape: an interior bandwidth band maximises F1, and SVAQD at any
reasonable bandwidth beats static SVAQ configured with the *wrong* (early
phase) background probability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.config import OnlineConfig
from repro.core.engine import OnlineEngine
from repro.core.query import Query
from repro.detectors.zoo import default_zoo
from repro.eval.metrics import MatchReport, match_sequences
from repro.video.synthesis import LabeledVideo, SceneSpec, TrackSpec, synthesize_video

from paper.tables import render_table

DEFAULT_BANDWIDTHS: tuple[float, ...] = (500.0, 2_500.0, 10_000.0, 60_000.0)
QUERY = Query(objects=["car"], action="loitering")


def build_drift_video(index: int, seed: int, duration_s: float) -> LabeledVideo:
    """A crossroad camera: car traffic is light, then rush hour, then light
    again, while the queried action happens occasionally throughout."""
    spec = SceneSpec(
        video_id=f"drift-{index:02d}",
        duration_s=duration_s,
        tracks=(
            TrackSpec(
                label="loitering",
                kind="action",
                occupancy=0.12,
                mean_duration_s=18.0,
            ),
            TrackSpec(
                label="car",
                kind="object",
                correlate_with="loitering",
                correlation=0.92,
                # Background car traffic drifts: calm, rush hour, calm.
                phases=((0.4, 0.04), (0.3, 0.35), (0.3, 0.04)),
                mean_duration_s=10.0,
            ),
        ),
    )
    return synthesize_video(spec, seed=seed * 1000 + index)


@dataclass(frozen=True)
class BandwidthAblationResult:
    rows: tuple[tuple[str, float, float, float], ...]  # label, f1, P, R
    svaq_f1: float

    def render(self) -> str:
        rows = list(self.rows) + [("SVAQ (static p0)", self.svaq_f1, 0.0, 0.0)]
        return render_table(
            ["configuration", "F1", "precision", "recall"],
            rows,
            title="Ablation — kernel bandwidth under concept drift",
            precision=3,
        )


def run(
    seed: int = 0,
    n_videos: int = 4,
    duration_s: float = 480.0,
    bandwidths: Sequence[float] = DEFAULT_BANDWIDTHS,
) -> BandwidthAblationResult:
    zoo = default_zoo(seed=seed)
    videos = [build_drift_video(i, seed, duration_s) for i in range(n_videos)]
    truths = [
        v.truth.query_clips(QUERY.objects, QUERY.action, v.meta.geometry)
        for v in videos
    ]

    rows = []
    for bandwidth in bandwidths:
        config = replace(OnlineConfig(), kernel_bandwidth_ou=bandwidth)
        total = MatchReport(0, 0, 0)
        for video, truth in zip(videos, truths):
            result = OnlineEngine(zoo, config).run(QUERY, video)
            total = total + match_sequences(result.sequences, truth)
        rows.append(
            (f"SVAQD u={bandwidth:g}", total.f1, total.precision, total.recall)
        )

    # Static SVAQ tuned to the calm phase: wrong during rush hour.
    svaq = OnlineEngine(zoo, OnlineConfig().with_p0(1e-4))
    total = MatchReport(0, 0, 0)
    for video, truth in zip(videos, truths):
        result = svaq.run(QUERY, video, "svaq")
        total = total + match_sequences(result.sequences, truth)
    return BandwidthAblationResult(rows=tuple(rows), svaq_f1=total.f1)


def check(result: BandwidthAblationResult) -> None:
    """The shape targets DESIGN.md names for this experiment."""
    best = max(f1 for _, f1, _, _ in result.rows)
    # adaptive SVAQD at a reasonable bandwidth beats static SVAQ tuned for
    # the pre-drift phase
    assert best > result.svaq_f1
    assert best >= 0.7
