"""Figure 2 — F1 of SVAQ vs SVAQD as the initial background probability
varies.

Paper shape target: SVAQD is essentially flat across
``p₀ ∈ [10⁻⁶, 10⁻¹]`` thanks to its adaptive estimation, while SVAQ has a
pronounced interior peak and degrades toward both extremes.  (In our
simulated substrate SVAQ's peak sits at the detectors' operating false
positive rate rather than the paper's 10⁻⁴–10⁻⁵ — the peak's *location*
tracks the deployed models' noise floor, its *existence* is the result.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.detectors.zoo import default_zoo
from repro.video.datasets import build_youtube_set, youtube_set_by_id

from paper.harness import aggregate_f1, run_query_over_videos
from paper.tables import render_series

#: Figure 2's two example queries (single-object variants of q2 and q1).
QUERY_A = Query(objects=["car"], action="blowing leaves")
QUERY_B = Query(objects=["faucet"], action="washing dishes")

DEFAULT_P0_GRID: tuple[float, ...] = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


@dataclass(frozen=True)
class Fig2Result:
    p0_grid: tuple[float, ...]
    #: query label -> algorithm -> F1 per p0
    series: dict[str, dict[str, tuple[float, ...]]]

    def render(self) -> str:
        blocks = []
        for query_label, algos in self.series.items():
            blocks.append(
                render_series(
                    "p0",
                    [f"{p:g}" for p in self.p0_grid],
                    {name.upper(): values for name, values in algos.items()},
                    title=f"Figure 2 ({query_label})",
                )
            )
        return "\n\n".join(blocks)

    def flatness(self, query_label: str, algorithm: str) -> float:
        """Max-min F1 spread across the grid (SVAQD's should be small)."""
        values = self.series[query_label][algorithm]
        return max(values) - min(values)


def run(
    seed: int = 0,
    scale: float = 0.15,
    p0_grid: Sequence[float] = DEFAULT_P0_GRID,
) -> Fig2Result:
    """Sweep the initial background probability for both Figure 2 queries."""
    zoo = default_zoo(seed=seed)
    datasets = {
        "a: blowing leaves + car": (
            QUERY_A, build_youtube_set(youtube_set_by_id("q2"), seed, scale).videos
        ),
        "b: washing dishes + faucet": (
            QUERY_B, build_youtube_set(youtube_set_by_id("q1"), seed, scale).videos
        ),
    }
    series: dict[str, dict[str, tuple[float, ...]]] = {}
    for label, (query, videos) in datasets.items():
        per_algo: dict[str, list[float]] = {"svaq": [], "svaqd": []}
        for p0 in p0_grid:
            config = OnlineConfig().with_p0(p0)
            for algo in ("svaq", "svaqd"):
                runs = run_query_over_videos(algo, zoo, query, videos, config)
                per_algo[algo].append(aggregate_f1(runs))
        series[label] = {k: tuple(v) for k, v in per_algo.items()}
    return Fig2Result(p0_grid=tuple(p0_grid), series=series)


def check(result: Fig2Result) -> None:
    """The shape targets DESIGN.md names for this experiment."""
    for label in result.series:
        # SVAQD's spread across the grid stays tight; SVAQ's does not.
        assert result.flatness(label, "svaqd") <= 0.35
        svaq = result.series[label]["svaq"]
        svaqd = result.series[label]["svaqd"]
        # SVAQD at its worst p0 is close to (or above) SVAQ at its best.
        assert min(svaqd) >= max(svaq) - 0.35
        # ... and comfortably above SVAQ at the extremes.
        assert svaqd[0] > svaq[0]
