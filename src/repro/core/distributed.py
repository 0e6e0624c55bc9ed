"""Scatter-gather top-K over a repository split across in-memory shards.

Each shard runs an *exact-score* RVAQ (:class:`ShardSearch`, a steppable
subclass of :class:`~repro.core.rvaq.RVAQ`) over its own clip tables.
Between fixed-budget rounds the coordinator reads every shard's best K
proven lower bounds into a :class:`GlobalFrontier`, which composes them
into a global threshold-algorithm stop condition:

* the coordinator's **floor** is the K-th largest of the union of all
  reported lower bounds.  Lower bounds never exceed true sequence scores,
  and a k-th order statistic over a superset dominates the one over any
  subset, so the floor is always a proven lower bound on the global K-th
  answer score;
* the floor feeds back into each shard's next round, where RVAQ's
  decision step retires any sequence whose upper bound falls *strictly*
  below it (see ``_apply_decisions`` in :mod:`repro.core.rvaq`).  A shard
  whose whole upper frontier sinks under the floor therefore halts early
  — the global K best provably live elsewhere — without ever discarding
  a sequence that could still reach rank K (ties survive the strict
  comparison).

Shards run in exact-score mode so every surviving candidate carries its
true score; the gather step then reproduces the single-repository
engine's deterministic ranking by sorting on ``(-score, global video
ingestion order, local start)`` — precisely the stable slot order RVAQ's
final sort falls back to on score ties.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Iterable, Sequence

from repro.core.config import RankingConfig
from repro.core.query import Query
from repro.core.rvaq import RVAQ, _WorkingSet, ranked_labels
from repro.core.scoring import PaperScoring, ScoringScheme
from repro.core.tbclip import TBClipIterator
from repro.errors import ConfigurationError, QueryError, StorageError
from repro.storage.access import AccessStats
from repro.storage.ingest import VideoIngest
from repro.storage.repository import VideoRepository
from repro.storage.sharded import ShardedRepository
from repro.utils.validation import require_k, require_positive_int

#: One localised answer row: ``(video_id, start_clip, end_clip, score)``.
Row = tuple[str, int, int, float]

#: TBClip pairs each shard processes between coordinator barriers: small
#: enough that a freshly grown floor reaches the shards while early
#: stopping still has leverage.
DEFAULT_ROUND_BUDGET = 256


@dataclass(frozen=True)
class ShardReport:
    """A finished shard's contribution to the gather step."""

    shard: int
    #: The shard's best K exact-score rows, already localised.
    candidates: tuple[Row, ...]
    stats: AccessStats
    iterations: int
    rounds: int
    wall_s: float


@dataclass(frozen=True)
class DistributedTopKResult:
    """Output of one scatter-gather execution.

    ``rows`` is already localised — ``(video_id, start_clip, end_clip,
    score)`` in rank order, the same rows
    :meth:`repro.core.engine.OfflineEngine.localized` renders for a
    single-repository result.
    """

    query: Query
    k: int
    rows: tuple[Row, ...]
    stats: AccessStats
    per_shard: tuple[ShardReport, ...]
    rounds: int

    @property
    def iterations(self) -> int:
        return sum(report.iterations for report in self.per_shard)


class ShardSearch(RVAQ):
    """A steppable exact-score RVAQ over one shard.

    Same bound maintenance, decision frontier and skip protocol as the
    parent — :meth:`step` simply runs the Algorithm-4 loop for a bounded
    number of TBClip pairs with the coordinator's floor folded into the
    decision step instead of looping to completion.
    """

    def __init__(
        self,
        repository: VideoRepository,
        query: Query,
        k: int,
        scoring: ScoringScheme | None = None,
        config: RankingConfig | None = None,
        shard: int = 0,
    ) -> None:
        # Exact scores are what make the gather step well-defined: every
        # candidate carries its true score, so the coordinator never has
        # to re-open a shard to break a tie.
        config = replace(config or RankingConfig(), require_exact_scores=True)
        super().__init__(repository, scoring or PaperScoring(), config)
        self.shard = shard
        self._k = k
        self._stats = AccessStats()
        self._iterations = 0
        self._rounds = 0
        self._wall_s = 0.0
        p_q = self.result_sequences(query)
        self._search: tuple[_WorkingSet, TBClipIterator] | None = None
        if p_q:
            self._search = self._open(query, p_q, k, self._stats)
        self._done = self._search is None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def top_lowers(self) -> tuple[float, ...]:
        """This shard's best K lower bounds, descending (cheap; no table
        access).  Decided sequences keep valid lower bounds, so they take
        part: the coordinator's k-th statistic only tightens with more."""
        if self._search is None:
            return ()
        return tuple(float(v) for v in self._search[0].top_lowers(self._k))

    def step(self, budget: int, floor: float) -> None:
        """Process up to ``budget`` TBClip pairs under the global floor."""
        if self._done or self._search is None:
            return
        start_s = perf_counter()
        bounds, iterator = self._search
        for _ in range(budget):
            pair = iterator.next_pair()
            self._iterations += 1
            # Converged when every clip of P_q is processed (all bounds
            # exact), Eq. 15 holds, or every undecided sequence already
            # has its exact score (none left at all once the
            # coordinator's floor retired the rest) — no further table
            # access can change what this shard contributes.
            if (
                iterator.drained(pair)
                or self._consume_pair(bounds, pair, self._k, floor)
                or len(bounds.exact_live()[0]) == bounds.n_live
            ):
                self._done = True
                break
        self._rounds += 1
        self._wall_s += perf_counter() - start_s

    def finish(self) -> ShardReport:
        """Localise the surviving exact-score candidates and report."""
        if not self._done:
            raise QueryError("shard search has not converged; keep stepping")
        candidates: list[Row] = []
        if self._search is not None:
            bounds = self._search[0]
            slots, scores = bounds.exact_live()
            # The best K by score, ties to the lowest slot: ascending global
            # cid, which localises to the gather tie-break (video ingestion
            # order, local start).  Rows are not in slot order — a sequence
            # gets its own row when its first clip arrives — hence the key.
            best = sorted(
                zip(slots.tolist(), scores.tolist()), key=lambda c: (-c[1], c[0])
            )
            for slot, score in best[: self._k]:
                video_id, start = self._repo.to_local(bounds.starts[slot])
                _, end = self._repo.to_local(bounds.ends[slot])
                candidates.append((video_id, start, end, score))
        return ShardReport(
            shard=self.shard,
            candidates=tuple(candidates),
            stats=self._stats,
            iterations=self._iterations,
            rounds=self._rounds,
            wall_s=self._wall_s,
        )


def require_labels(ingests: Iterable[VideoIngest], query: Query) -> None:
    """Refuse a ranked query naming a label none of ``ingests`` — the whole
    store's — carries: a typo, which RVAQ used to answer with an empty
    ranking.  One video or one shard without the label stays valid."""
    carried = {label for ingest in ingests for label in ingest.labels}
    for label in ranked_labels(query):
        if label not in carried:
            raise StorageError(f"no ingested video carries label {label!r}")


class GlobalFrontier:
    """The coordinator's composed bound state across all shards."""

    def __init__(self, n_shards: int, k: int) -> None:
        self._lowers: list[tuple[float, ...]] = [() for _ in range(n_shards)]
        self._k = k

    def observe(self, search: ShardSearch) -> None:
        self._lowers[search.shard] = search.top_lowers

    @property
    def floor(self) -> float:
        """K-th largest of every reported lower bound (``-inf`` until K
        bounds exist) — a proven lower bound on the global K-th score."""
        merged = sorted(
            (v for lowers in self._lowers for v in lowers), reverse=True
        )
        if len(merged) < self._k:
            return float("-inf")
        return merged[self._k - 1]


def _gather(
    sharded: ShardedRepository,
    query: Query,
    k: int,
    reports: Sequence[ShardReport],
    rounds: int,
) -> DistributedTopKResult:
    """Merge per-shard candidates and accounting into the global answer."""
    order = sharded.global_order()
    candidates = [row for report in reports for row in report.candidates]
    # Exactly the single-repository ranking: score descending, ties by the
    # stable slot order of the merged P_q — global video ingestion order,
    # then local start.
    candidates.sort(key=lambda row: (-row[3], order[row[0]], row[1]))
    stats = AccessStats()
    for report in reports:
        stats = stats.merged_with(report.stats)
    return DistributedTopKResult(
        query=query,
        k=k,
        rows=tuple(candidates[:k]),
        stats=stats,
        per_shard=tuple(reports),
        rounds=rounds,
    )


def sharded_top_k(
    sharded: ShardedRepository,
    query: Query,
    k: int,
    scoring: ScoringScheme | None = None,
    config: RankingConfig | None = None,
    *,
    executor: str = "serial",
    round_budget: int = DEFAULT_ROUND_BUDGET,
) -> DistributedTopKResult:
    """Scatter-gather top-K over a sharded repository, the shards stepped
    one after the other in this process.

    Result rows are identical to running exact-score RVAQ over the merged
    single repository, for every shard count; per-shard access accounting
    is merged into ``stats``, and each shard's wall seconds stay on its
    :class:`ShardReport` in ``per_shard``.
    """
    if executor != "serial":
        raise ConfigurationError(f"unknown executor {executor!r}; only 'serial' runs")
    k = require_k(k)
    require_positive_int(round_budget, "round_budget")
    require_labels(sharded.iter_ingests(), query)
    searches = [
        ShardSearch(shard_repo, query, k, scoring, config, shard)
        for shard, shard_repo in enumerate(sharded.shards)
    ]
    frontier = GlobalFrontier(sharded.n_shards, k)
    rounds = 0
    while any(not search.done for search in searches):
        # Barrier semantics: every shard steps under the floor composed at
        # the *previous* round's end.
        floor = frontier.floor
        for search in searches:
            if not search.done:
                search.step(round_budget, floor)
                frontier.observe(search)
        rounds += 1
    return _gather(sharded, query, k, [search.finish() for search in searches], rounds)
