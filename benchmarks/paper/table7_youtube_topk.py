"""Table 7 — offline top-K performance on the YouTube sets q1 and q2 at
K = 5, across the four algorithms.

Unlike Table 6 this runs over a *multi-video repository* (every video of
the query set is ingested; global clip ids keep sequences within videos).
Paper shape target: RVAQ beats the alternatives by roughly an order of
magnitude in random accesses; FA is worst.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.engine import OfflineEngine
from repro.detectors.zoo import default_zoo
from repro.video.datasets import (
    DISTRACTOR_OBJECTS,
    build_youtube_set,
    youtube_set_by_id,
)

from paper.table6_movie_topk import ALGORITHMS, TopKMeasurement
from paper.tables import render_table


@dataclass(frozen=True)
class Table7Result:
    k: int
    #: qid -> algorithm measurements
    measurements: dict[str, tuple[TopKMeasurement, ...]]

    def render(self) -> str:
        rows = []
        for qid, per_algo in self.measurements.items():
            for m in per_algo:
                rows.append(
                    (qid, m.algorithm, m.runtime_ms, m.random_accesses)
                )
        return render_table(
            ["query", "method", "runtime (ms)", "# random acc"],
            rows,
            title=f"Table 7 — YouTube dataset (K={self.k})",
            precision=1,
        )

    def measurement(self, qid: str, algorithm: str) -> TopKMeasurement:
        for m in self.measurements[qid]:
            if m.algorithm == algorithm:
                return m
        raise KeyError((qid, algorithm))


def run(
    seed: int = 0,
    scale: float = 0.15,
    k: int = 5,
    qids: Sequence[str] = ("q1", "q2"),
    algorithms: Sequence[str] = ALGORITHMS,
) -> Table7Result:
    measurements: dict[str, tuple[TopKMeasurement, ...]] = {}
    for qid in qids:
        spec = youtube_set_by_id(qid)
        query_set = build_youtube_set(spec, seed, scale)
        engine = OfflineEngine(zoo=default_zoo(seed=seed))
        for video in query_set.videos:
            engine.ingest(
                video,
                object_labels=[*spec.objects, "person", *DISTRACTOR_OBJECTS],
                action_labels=[spec.action],
            )
        per_algo = []
        for algorithm in algorithms:
            start = time.perf_counter()
            result = engine.top_k(spec.query, k=k, algorithm=algorithm)
            wall = time.perf_counter() - start
            per_algo.append(
                TopKMeasurement(
                    algorithm=algorithm,
                    k=k,
                    wall_seconds=wall,
                    simulated_io_ms=result.stats.simulated_ms,
                    random_accesses=result.stats.random_accesses,
                    sequential_accesses=result.stats.sequential_accesses,
                )
            )
        measurements[qid] = tuple(per_algo)
    return Table7Result(k=k, measurements=measurements)


def check(result: Table7Result) -> None:
    """The shape targets DESIGN.md names for this experiment."""
    for qid in result.measurements:
        fa = result.measurement(qid, "fa")
        rvaq = result.measurement(qid, "rvaq")
        traverse = result.measurement(qid, "pq-traverse")
        assert fa.random_accesses > rvaq.random_accesses, qid
        assert rvaq.random_accesses <= traverse.random_accesses, qid
        assert fa.runtime_ms > rvaq.runtime_ms, qid
