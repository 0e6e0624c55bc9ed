"""§5.2 "Runtime Superiority" — where online query time goes, and the
end-to-end alternative.

Paper shape targets, on query q1:

* model inference dominates the online runtime (>98%; the paper reports
  168.7 of 171.8 minutes);
* a per-query end-to-end fused model costs orders of magnitude more
  (>60 hours of fine-tuning) for an F1 gain under 0.05.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext, ExecutionStats
from repro.core.query import Query
from repro.detectors.zoo import default_zoo
from repro.video.datasets import build_youtube_set, youtube_set_by_id

from paper.endtoend import EndToEndCostModel, RuntimeDecomposition, decompose_runtime
from paper.harness import aggregate_f1, run_query_over_videos
from paper.tables import render_table

QUERY = Query(objects=["faucet", "oven"], action="washing dishes")


@dataclass(frozen=True)
class RuntimeResult:
    decomposition: RuntimeDecomposition
    svaqd_f1: float
    svaqd_total_minutes: float
    endtoend_minutes: float
    endtoend_f1: float
    stats: ExecutionStats | None = None

    @property
    def endtoend_slowdown(self) -> float:
        return self.endtoend_minutes / max(1e-9, self.svaqd_total_minutes)

    def render(self) -> str:
        rows = [
            ("SVAQD inference (simulated min)", self.decomposition.inference_ms / 60000),
            ("SVAQD algorithm (measured min)", self.decomposition.algorithm_ms / 60000),
            ("SVAQD inference share", self.decomposition.inference_share),
            ("SVAQD F1", self.svaqd_f1),
            ("End-to-end total (min)", self.endtoend_minutes),
            ("End-to-end F1", self.endtoend_f1),
            ("End-to-end slowdown", self.endtoend_slowdown),
        ]
        if self.stats is not None:
            rows += [
                ("Clips processed", self.stats.clips_processed),
                ("Model invocations", self.stats.model_invocations),
                ("Predicates evaluated", self.stats.predicates_evaluated),
                ("Predicates skipped", self.stats.predicates_skipped),
                ("Short-circuit savings", self.stats.short_circuit_savings),
                ("Quota refreshes", self.stats.quota_refreshes),
            ]
            for stage, seconds in self.stats.stage_wall_s.items():
                rows.append((f"Stage wall: {stage} (s)", seconds))
        return render_table(
            ["quantity", "value"], rows,
            title="Runtime decomposition (q1) and end-to-end comparison",
            precision=3,
        )


def run(seed: int = 0, scale: float = 0.15) -> RuntimeResult:
    zoo = default_zoo(seed=seed)
    videos = build_youtube_set(youtube_set_by_id("q1"), seed, scale).videos
    zoo.cost_meter.reset()
    context = ExecutionContext()
    wall_start = time.perf_counter()
    runs = run_query_over_videos(
        "svaqd", zoo, QUERY, videos, OnlineConfig(), context=context
    )
    algorithm_wall = time.perf_counter() - wall_start

    decomposition = decompose_runtime(zoo.cost_meter, algorithm_wall)
    svaqd_f1 = aggregate_f1(runs)
    n_shots = sum(v.meta.n_shots for v in videos)
    model = EndToEndCostModel()
    return RuntimeResult(
        decomposition=decomposition,
        svaqd_f1=svaqd_f1,
        svaqd_total_minutes=decomposition.total_ms / 60000,
        endtoend_minutes=model.query_cost_minutes(n_shots),
        endtoend_f1=model.fused_f1(svaqd_f1),
        stats=context.snapshot(),
    )


def check(result: RuntimeResult) -> None:
    """The shape targets DESIGN.md names for this experiment."""
    # Paper: >98% of online query latency is model inference.
    assert result.decomposition.inference_share > 0.95
    # Paper: the fused end-to-end model costs >60h of fine-tuning per query
    # for <0.05 F1 gain.
    assert result.endtoend_slowdown > 10.0
    assert result.endtoend_f1 - result.svaqd_f1 <= 0.05
