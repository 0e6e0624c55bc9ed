"""Ablation — sensitivity to the significance level ``α`` (Eq. 5).

The paper fixes one significance level; this ablation quantifies the
precision/recall trade-off it controls: a stricter ``α`` raises every
critical value (fewer false positive clips, more boundary truncation), a
looser one lowers them.  Expected shape: F1 is fairly flat over a broad
middle range and degrades at the extremes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.detectors.zoo import default_zoo
from repro.video.datasets import build_youtube_set, youtube_set_by_id

from paper.harness import aggregate_report, run_query_over_videos
from paper.tables import render_table

DEFAULT_ALPHAS: tuple[float, ...] = (0.001, 0.01, 0.05, 0.2, 0.5)
QUERY = Query(objects=["faucet"], action="washing dishes")


@dataclass(frozen=True)
class AlphaAblationResult:
    rows: tuple[tuple[float, float, float, float], ...]  # alpha, f1, P, R

    def render(self) -> str:
        return render_table(
            ["alpha", "SVAQD F1", "precision", "recall"],
            self.rows,
            title="Ablation — significance level α",
            precision=3,
        )

    def f1(self, alpha: float) -> float:
        for a, f1, _, _ in self.rows:
            if a == alpha:
                return f1
        raise KeyError(alpha)


def run(
    seed: int = 0,
    scale: float = 0.15,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> AlphaAblationResult:
    zoo = default_zoo(seed=seed)
    videos = build_youtube_set(youtube_set_by_id("q1"), seed, scale).videos
    rows = []
    for alpha in alphas:
        config = replace(OnlineConfig(), alpha=alpha)
        report = aggregate_report(
            run_query_over_videos("svaqd", zoo, QUERY, videos, config)
        )
        rows.append((alpha, report.f1, report.precision, report.recall))
    return AlphaAblationResult(rows=tuple(rows))


def check(result: AlphaAblationResult) -> None:
    """The shape targets DESIGN.md names for this experiment."""
    f1s = [f1 for _, f1, _, _ in result.rows]
    # an interior alpha is at least as good as the loosest setting
    assert max(f1s) >= f1s[-1]
    assert max(f1s) >= 0.6
