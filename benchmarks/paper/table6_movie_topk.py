"""Table 6 — offline top-K performance on the movie *Coffee and
Cigarettes*: runtime and random accesses for FA, RVAQ-noSkip, Pq-Traverse
and RVAQ as K varies.

Paper shape targets:

* FA is by far the most expensive (no bounds, no skipping);
* RVAQ-noSkip improves on FA but pays for not pruning;
* Pq-Traverse is flat in K (it always touches every clip of ``P_q``);
* RVAQ is the cheapest at small K and approaches Pq-Traverse as K grows
  toward the number of result sequences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.core.engine import OfflineEngine
from repro.core.query import Query
from repro.detectors.zoo import default_zoo
from repro.video.datasets import (
    DISTRACTOR_OBJECTS,
    MovieSpec,
    build_movie,
    movie_by_title,
)

from paper.tables import render_table

DEFAULT_K_GRID: tuple[int, ...] = (1, 5, 9, 11, 13, 15)
ALGORITHMS: tuple[str, ...] = ("fa", "rvaq-noskip", "pq-traverse", "rvaq")


@dataclass(frozen=True)
class TopKMeasurement:
    algorithm: str
    k: int
    wall_seconds: float
    simulated_io_ms: float
    random_accesses: int
    sequential_accesses: int

    @property
    def runtime_ms(self) -> float:
        """Reported runtime: simulated I/O plus measured compute."""
        return self.simulated_io_ms + self.wall_seconds * 1000.0


@dataclass(frozen=True)
class Table6Result:
    movie: str
    n_sequences: int
    measurements: tuple[TopKMeasurement, ...]

    def rows(self) -> Iterator[tuple[Any, ...]]:
        for m in self.measurements:
            yield (
                m.algorithm, m.k, m.runtime_ms, m.random_accesses,
                m.sequential_accesses,
            )

    def render(self) -> str:
        return render_table(
            ["method", "K", "runtime (ms)", "# random acc", "# seq acc"],
            list(self.rows()),
            title=(
                f"Table 6 — {self.movie} "
                f"({self.n_sequences} result sequences)"
            ),
            precision=1,
        )

    def measurement(self, algorithm: str, k: int) -> TopKMeasurement:
        for m in self.measurements:
            if m.algorithm == algorithm and m.k == k:
                return m
        raise KeyError((algorithm, k))


def build_engine(
    spec: MovieSpec, seed: int, scale: float
) -> tuple[OfflineEngine, Query]:
    """Synthesize + ingest one Table-2 movie (the one-time §4.2 phase)."""
    video = build_movie(spec, seed=seed, scale=scale)
    engine = OfflineEngine(zoo=default_zoo(seed=seed))
    engine.ingest(
        video,
        object_labels=[*spec.objects, "person", *DISTRACTOR_OBJECTS],
        action_labels=[spec.action],
    )
    return engine, spec.query


def measure(
    engine: OfflineEngine, query: Query, algorithm: str, k: int
) -> TopKMeasurement:
    start = time.perf_counter()
    result = engine.top_k(query, k=k, algorithm=algorithm)
    wall = time.perf_counter() - start
    return TopKMeasurement(
        algorithm=algorithm,
        k=k,
        wall_seconds=wall,
        simulated_io_ms=result.stats.simulated_ms,
        random_accesses=result.stats.random_accesses,
        sequential_accesses=result.stats.sequential_accesses,
    )


def run(
    seed: int = 0,
    scale: float = 0.25,
    k_grid: Sequence[int] = DEFAULT_K_GRID,
    algorithms: Sequence[str] = ALGORITHMS,
) -> Table6Result:
    spec = movie_by_title("Coffee and Cigarettes")
    engine, query = build_engine(spec, seed, scale)
    n_sequences = len(engine.top_k(query, k=1, algorithm="pq-traverse").p_q)
    measurements = []
    for k in k_grid:
        for algorithm in algorithms:
            measurements.append(measure(engine, query, algorithm, k))
    return Table6Result(
        movie=spec.title,
        n_sequences=n_sequences,
        measurements=tuple(measurements),
    )


def check(result: Table6Result) -> None:
    """The shape targets DESIGN.md names for this experiment."""
    small_k = result.measurements[0].k
    fa = result.measurement("fa", small_k)
    noskip = result.measurement("rvaq-noskip", small_k)
    traverse = result.measurement("pq-traverse", small_k)
    rvaq = result.measurement("rvaq", small_k)
    # paper ordering at small K: FA worst; RVAQ cheapest
    assert fa.random_accesses > traverse.random_accesses
    assert fa.random_accesses > rvaq.random_accesses
    assert rvaq.random_accesses <= noskip.random_accesses
    assert rvaq.random_accesses < traverse.random_accesses
    assert rvaq.runtime_ms < fa.runtime_ms
    # Pq-Traverse flat in K
    ks = sorted({m.k for m in result.measurements})
    flat = {result.measurement("pq-traverse", k).random_accesses for k in ks}
    assert len(flat) == 1
    # RVAQ approaches Pq-Traverse as K grows
    rvaq_big = result.measurement("rvaq", ks[-1])
    assert rvaq_big.random_accesses >= rvaq.random_accesses
