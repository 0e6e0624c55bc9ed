"""Figure 5 — frame-level F1 as the clip size varies.

Paper shape target: the frame-level F1 is nearly flat in the clip size —
the clip size changes how results are segmented into sequences (Figure 4),
not which frames are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import OnlineConfig
from repro.detectors.zoo import default_zoo
from repro.video.datasets import build_youtube_set, youtube_set_by_id

from paper.fig3_f1_all_queries import SVAQ_P0
from paper.fig4_clip_size import (
    DEFAULT_CLIP_SIZES,
    QUERIES,
    _resized,
)
from paper.harness import aggregate_frame_f1, run_query_over_videos
from paper.tables import render_series


@dataclass(frozen=True)
class Fig5Result:
    clip_sizes: tuple[int, ...]
    #: query label -> algorithm -> frame-level F1 per clip size
    series: dict[str, dict[str, tuple[float, ...]]]

    def render(self) -> str:
        blocks = []
        for label, algos in self.series.items():
            blocks.append(
                render_series(
                    "clip size",
                    self.clip_sizes,
                    {a.upper(): values for a, values in algos.items()},
                    title=f"Figure 5 ({label})",
                )
            )
        return "\n\n".join(blocks)

    def spread(self, label: str, algorithm: str) -> float:
        values = self.series[label][algorithm]
        return max(values) - min(values)


def run(
    seed: int = 0,
    scale: float = 0.15,
    clip_sizes: Sequence[int] = DEFAULT_CLIP_SIZES,
    algorithms: Sequence[str] = ("svaq", "svaqd"),
) -> Fig5Result:
    zoo = default_zoo(seed=seed)
    config = OnlineConfig().with_p0(SVAQ_P0)
    series: dict[str, dict[str, tuple[float, ...]]] = {}
    for qid, query in QUERIES:
        base_videos = build_youtube_set(youtube_set_by_id(qid), seed, scale).videos
        per_algo: dict[str, list[float]] = {a: [] for a in algorithms}
        for size in clip_sizes:
            videos = _resized(base_videos, size)
            for algo in algorithms:
                runs = run_query_over_videos(algo, zoo, query, videos, config)
                per_algo[algo].append(aggregate_frame_f1(runs))
        series[f"{qid}: {query.describe()}"] = {
            a: tuple(v) for a, v in per_algo.items()
        }
    return Fig5Result(clip_sizes=tuple(clip_sizes), series=series)


def check(result: Fig5Result) -> None:
    """The shape targets DESIGN.md names for this experiment."""
    for label in result.series:
        for algo in result.series[label]:
            assert result.spread(label, algo) <= 0.25, (label, algo)
            assert min(result.series[label][algo]) >= 0.5
