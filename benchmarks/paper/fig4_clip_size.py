"""Figure 4 — number of result sequences as the clip size varies.

Paper shape targets: smaller clips fragment results into more, shorter
sequences; larger clips merge them into fewer, longer ones; yet the total
number of *frames* reported stays roughly stable (the content is the same,
only its segmentation changes) — Figure 5 confirms via frame-level F1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.detectors.zoo import default_zoo
from repro.video.datasets import build_youtube_set, youtube_set_by_id
from repro.video.synthesis import LabeledVideo

from paper.fig3_f1_all_queries import SVAQ_P0
from paper.harness import run_query_over_videos
from paper.tables import render_series

QUERIES: tuple[tuple[str, Query], ...] = (
    ("q2", Query(objects=["car"], action="blowing leaves")),
    ("q1", Query(objects=["faucet"], action="washing dishes")),
)

#: Clip sizes in frames (all multiples of the 10-frame shot).
DEFAULT_CLIP_SIZES: tuple[int, ...] = (20, 30, 50, 80, 120)


def _resized(videos: Sequence[LabeledVideo], frames_per_clip: int) -> list[LabeledVideo]:
    resized = []
    for video in videos:
        geometry = video.meta.geometry.with_clip_frames(frames_per_clip)
        resized.append(
            LabeledVideo(meta=video.meta.with_geometry(geometry), truth=video.truth)
        )
    return resized


@dataclass(frozen=True)
class Fig4Result:
    clip_sizes: tuple[int, ...]
    #: query label -> algorithm -> (#sequences, frames reported) per size
    sequences: dict[str, dict[str, tuple[int, ...]]]
    frames: dict[str, dict[str, tuple[int, ...]]]

    def render(self) -> str:
        blocks = []
        for label in self.sequences:
            blocks.append(
                render_series(
                    "clip size",
                    self.clip_sizes,
                    {
                        f"{algo} #seq": self.sequences[label][algo]
                        for algo in self.sequences[label]
                    }
                    | {
                        f"{algo} frames": self.frames[label][algo]
                        for algo in self.frames[label]
                    },
                    title=f"Figure 4 ({label})",
                )
            )
        return "\n\n".join(blocks)


def run(
    seed: int = 0,
    scale: float = 0.15,
    clip_sizes: Sequence[int] = DEFAULT_CLIP_SIZES,
    algorithms: Sequence[str] = ("svaq", "svaqd"),
) -> Fig4Result:
    zoo = default_zoo(seed=seed)
    config = OnlineConfig().with_p0(SVAQ_P0)
    sequences: dict[str, dict[str, tuple[int, ...]]] = {}
    frames: dict[str, dict[str, tuple[int, ...]]] = {}
    for qid, query in QUERIES:
        base_videos = build_youtube_set(youtube_set_by_id(qid), seed, scale).videos
        per_algo_seq: dict[str, list[int]] = {a: [] for a in algorithms}
        per_algo_frames: dict[str, list[int]] = {a: [] for a in algorithms}
        for size in clip_sizes:
            videos = _resized(base_videos, size)
            for algo in algorithms:
                runs = run_query_over_videos(algo, zoo, query, videos, config)
                n_seq = sum(len(r.result.sequences) for r in runs)
                n_frames = sum(
                    r.result.sequences.total_length * size for r in runs
                )
                per_algo_seq[algo].append(n_seq)
                per_algo_frames[algo].append(n_frames)
        label = f"{qid}: {query.describe()}"
        sequences[label] = {a: tuple(v) for a, v in per_algo_seq.items()}
        frames[label] = {a: tuple(v) for a, v in per_algo_frames.items()}
    return Fig4Result(
        clip_sizes=tuple(clip_sizes), sequences=sequences, frames=frames
    )


def check(result: Fig4Result) -> None:
    """The shape targets DESIGN.md names for this experiment."""
    for label in result.sequences:
        for algo, counts in result.sequences[label].items():
            # smaller clips fragment results into at least as many sequences
            assert counts[0] >= counts[-1] - 1, (label, algo, counts)
        for algo, frames in result.frames[label].items():
            # ... while the frames reported stay roughly stable
            assert max(frames) <= 2.0 * max(1, min(frames)), (label, algo)
