"""Table 8 — RVAQ's speedup over Pq-Traverse on three movies as K varies,
plus the §5.3 accuracy check of the returned rankings.

Paper shape targets:

* speedups of roughly 2.3–3.7× at small K;
* the speedup decays toward ~1× when K reaches the total number of result
  sequences (max K column);
* the top-ranked sequences are overwhelmingly true positives (precision
  ≥ 0.81 overall; precision 1.0 for the top ranks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.eval.metrics import match_sequences
from repro.utils.intervals import IntervalSet
from repro.video.datasets import movie_by_title

from paper.table6_movie_topk import build_engine, measure
from paper.tables import render_table

DEFAULT_MOVIES: tuple[str, ...] = ("Iron Man", "Star Wars 3", "Titanic")
DEFAULT_K_GRID: tuple[int, ...] = (1, 3, 5, 7, 9, 11)


@dataclass(frozen=True)
class SpeedupRow:
    movie: str
    k: int
    rvaq_runtime_ms: float
    traverse_runtime_ms: float
    is_max_k: bool = False

    @property
    def speedup(self) -> float:
        return self.traverse_runtime_ms / max(1e-9, self.rvaq_runtime_ms)


@dataclass(frozen=True)
class Table8Result:
    rows: tuple[SpeedupRow, ...]
    #: movie -> (precision of RVAQ's max-K ranking vs ground truth,
    #:           precision of its top-min(10, K) ranks)
    accuracy: dict[str, tuple[float, float]]

    def render(self) -> str:
        table_rows = [
            (
                row.movie,
                "max" if row.is_max_k else row.k,
                row.speedup,
            )
            for row in self.rows
        ]
        speedups = render_table(
            ["movie", "K", "speedup vs Pq-Traverse"],
            table_rows,
            title="Table 8 — RVAQ speedup over Pq-Traverse",
        )
        acc_rows = [
            (movie, overall, top)
            for movie, (overall, top) in self.accuracy.items()
        ]
        accuracy = render_table(
            ["movie", "precision (all ranks)", "precision (top ranks)"],
            acc_rows,
            title="§5.3 — ranking accuracy vs ground truth",
        )
        return speedups + "\n\n" + accuracy

    def speedup(self, movie: str, k: int) -> float:
        """The speedup at K = ``k``: the max-K row's when ``k`` is |P_q|,
        which the run records once, as the max-K row."""
        for row in sorted(self.rows, key=lambda row: row.is_max_k):
            if row.movie == movie and row.k == k:
                return row.speedup
        raise KeyError((movie, k))

    def max_k_speedup(self, movie: str) -> float:
        for row in self.rows:
            if row.movie == movie and row.is_max_k:
                return row.speedup
        raise KeyError(movie)


def run(
    seed: int = 0,
    scale: float = 0.2,
    movies: Sequence[str] = DEFAULT_MOVIES,
    k_grid: Sequence[int] = DEFAULT_K_GRID,
) -> Table8Result:
    rows: list[SpeedupRow] = []
    accuracy: dict[str, tuple[float, float]] = {}
    for title in movies:
        spec = movie_by_title(title)
        engine, query = build_engine(spec, seed, scale)
        video = engine.video(spec.video_id)
        truth = video.truth.query_clips(
            query.objects, query.action, video.meta.geometry
        )
        max_k = len(engine.top_k(query, k=1, algorithm="pq-traverse").p_q)
        seen_k: set[int] = set()
        for k in [*k_grid, None]:
            effective_k = max_k if k is None else min(k, max_k)
            if k is not None and (effective_k in seen_k or effective_k == max_k):
                continue  # clamped duplicates add no information
            seen_k.add(effective_k)
            rvaq = measure(engine, query, "rvaq", effective_k)
            traverse = measure(engine, query, "pq-traverse", effective_k)
            rows.append(
                SpeedupRow(
                    movie=title,
                    k=effective_k,
                    rvaq_runtime_ms=rvaq.runtime_ms,
                    traverse_runtime_ms=traverse.runtime_ms,
                    is_max_k=k is None,
                )
            )
        ranked = engine.top_k(query, k=max_k, algorithm="rvaq")
        found = IntervalSet(r.interval for r in ranked.ranked)
        overall = match_sequences(found, truth).precision
        top = IntervalSet(r.interval for r in ranked.ranked[: min(10, max_k)])
        top_precision = match_sequences(top, truth).precision
        accuracy[title] = (overall, top_precision)
    return Table8Result(rows=tuple(rows), accuracy=accuracy)


def check(result: Table8Result) -> None:
    """The shape targets DESIGN.md names for this experiment."""
    for movie in ("Iron Man", "Star Wars 3", "Titanic"):
        small = result.speedup(movie, 1)
        at_max = result.max_k_speedup(movie)
        assert small > 1.0, (movie, small)       # RVAQ wins at small K
        assert at_max <= small, movie            # decays toward parity
        assert at_max >= 0.85, movie             # ... but stays near 1x
        overall, top = result.accuracy[movie]
        assert overall >= 0.7, movie             # §5.3: precision >= 0.81
        assert top >= 0.75, movie                # top ranks nearly all real
