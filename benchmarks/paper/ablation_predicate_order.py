"""Ablation — predicate evaluation order (footnote 5).

Algorithm 2 evaluates predicates sequentially and short-circuits on the
first negative, so evaluating the most selective predicate first saves
model invocations; the paper defers the ordering question to future work
and uses "user expertise".  This ablation measures the inference cost of
three policies on the same queries:

* ``user``        — the order the query was written in;
* ``selective``   — ascending empirical clip-level selectivity (cheapest);
* ``anti``        — descending selectivity (worst case).

Expected shape: results are identical across orders (conjunction is
commutative); inference cost differs — selective ≤ user ≤ anti.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import OnlineConfig
from repro.core.indicators import ClipEvaluator
from repro.core.policies import derive_static_quotas
from repro.core.query import Query
from repro.core.sequences import SequenceAssembler
from repro.core.session import StreamSession
from repro.detectors.zoo import ModelZoo, default_zoo
from repro.utils.intervals import IntervalSet
from repro.video.synthesis import LabeledVideo
from repro.video.datasets import build_youtube_set, youtube_set_by_id
from repro.video.stream import ClipStream

from paper.tables import render_table

QUERY = Query(objects=["person", "faucet", "oven"], action="washing dishes")


@dataclass(frozen=True)
class OrderAblationResult:
    rows: tuple[tuple[str, float, bool], ...]  # policy, cost ms, same result

    def render(self) -> str:
        return render_table(
            ["policy", "inference cost (simulated ms)", "same answers"],
            self.rows,
            title="Ablation — predicate evaluation order (footnote 5)",
            precision=0,
        )

    def cost(self, policy: str) -> float:
        for name, cost, _ in self.rows:
            if name == policy:
                return cost
        raise KeyError(policy)


def _run_with_order(
    zoo: ModelZoo,
    video: LabeledVideo,
    query: Query,
    config: OnlineConfig,
    order: Sequence[str],
) -> IntervalSet:
    """SVAQ's loop with an explicit predicate evaluation order."""
    evaluator = ClipEvaluator(zoo, video.meta, video.truth, query, config)
    k_crit = derive_static_quotas(
        query.frame_level_labels, query.actions, video.meta.geometry, config
    )
    assembler = SequenceAssembler()
    stream = ClipStream(video.meta)
    while not stream.end():
        clip = stream.next()
        evaluation = evaluator.evaluate(clip.clip_id, k_crit, order=order)
        assembler.push(clip.clip_id, evaluation.positive)
    assembler.finish()
    return assembler.result()


def _selectivity_order(
    zoo: ModelZoo,
    videos: Sequence[LabeledVideo],
    query: Query,
    config: OnlineConfig,
) -> list[str]:
    """Estimate per-predicate clip-level selectivity on the first video and
    order ascending (most selective predicate first)."""
    session = StreamSession.for_query(zoo, query, videos[0], config, dynamic=False)
    session.advance(ClipStream(videos[0].meta), short_circuit=False)
    probe = session.finish()
    rates = {
        label: probe.predicate_indicator_rate(label)
        for label in query.all_labels
    }
    return sorted(rates, key=rates.get)


def run(seed: int = 0, scale: float = 0.12) -> OrderAblationResult:
    config = OnlineConfig().with_p0(1e-2)
    videos = build_youtube_set(youtube_set_by_id("q1"), seed, scale).videos
    zoo = default_zoo(seed=seed)
    selective = _selectivity_order(zoo, videos, QUERY, config)
    orders = {
        "user": list(QUERY.all_labels),
        "selective": selective,
        "anti": list(reversed(selective)),
    }
    results: dict[str, list[IntervalSet]] = {}
    costs: dict[str, float] = {}
    for policy, order in orders.items():
        # Fresh zoo per policy so the cost meter isolates each run (scores
        # are deterministic in the seed, so answers stay comparable).
        policy_zoo = default_zoo(seed=seed)
        found = []
        for video in videos:
            found.append(_run_with_order(policy_zoo, video, QUERY, config, order))
        results[policy] = found
        costs[policy] = policy_zoo.cost_meter.ms()
    baseline = results["user"]
    rows = tuple(
        (policy, costs[policy], results[policy] == baseline)
        for policy in orders
    )
    return OrderAblationResult(rows=rows)


def check(result: OrderAblationResult) -> None:
    """The shape targets DESIGN.md names for this experiment."""
    # answers are order-invariant; cost is not
    assert all(same for _, _, same in result.rows)
    assert result.cost("selective") <= result.cost("anti")
    assert result.cost("selective") <= result.cost("user")
