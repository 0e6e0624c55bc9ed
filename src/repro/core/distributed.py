"""Scatter-gather distributed top-K over a sharded repository.

Each shard runs an *exact-score* RVAQ (:class:`ShardSearch`, a steppable
subclass of :class:`~repro.core.rvaq.RVAQ`) over its own clip tables.
Between fixed-budget rounds every shard reports a **frontier summary** —
its best K proven lower bounds and the highest upper bound of its still
undecided sequences — to a coordinator (:class:`GlobalFrontier`) that
composes them into a global threshold-algorithm stop condition:

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

Workers run in exact-score mode so every surviving candidate carries its
true score; the gather step then reproduces the single-repository
engine's deterministic ranking by sorting on ``(-score, global video
ingestion order, local start)`` — precisely the stable slot order RVAQ's
final sort falls back to on score ties.  The round/barrier schedule is
identical across the serial and process executors, so per-shard access
accounting is too.

The process executor ships shard *paths* (when the repository has been
saved) and each worker opens its shard through the format-3 column arena,
mapped read-only: O(1) open, and all workers share the arena's pages through
the OS page cache instead of materialising private copies.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Iterable, Literal, Sequence

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
from repro.utils.validation import require_positive_int

DistributedExecutor = Literal["serial", "process"]

#: TBClip pairs each shard processes between coordinator barriers.  Large
#: enough to amortise the round-trip, small enough that a freshly grown
#: floor reaches the shards while early stopping still has leverage.
DEFAULT_ROUND_BUDGET = 256


@dataclass(frozen=True)
class ShardFrontier:
    """One shard's per-round bound summary, streamed to the coordinator."""

    shard: int
    #: This shard's best lower bounds, descending, at most K of them.
    top_lowers: tuple[float, ...]
    #: Highest upper bound among still-undecided sequences (``-inf`` when
    #: none remain) — the coordinator halts the shard once the global
    #: floor strictly dominates this.
    max_live_upper: float
    n_live: int
    done: bool
    iterations: int


@dataclass(frozen=True)
class ShardCandidate:
    """An exact-score answer candidate, already localised to its video."""

    video_id: str
    start: int
    end: int
    score: float

    @property
    def row(self) -> tuple[str, int, int, float]:
        return (self.video_id, self.start, self.end, self.score)


@dataclass(frozen=True)
class ShardReport:
    """A finished shard's contribution to the gather step."""

    shard: int
    candidates: tuple[ShardCandidate, ...]
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
    rows: tuple[tuple[str, int, int, float], ...]
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
    decision step, then reports the bound frontier instead of looping to
    completion.
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
        # candidate crossing the wire carries its true score, so the
        # coordinator never has to re-open a shard to break a tie.
        config = replace(config or RankingConfig(), require_exact_scores=True)
        super().__init__(repository, scoring or PaperScoring(), config)
        if k <= 0:
            raise QueryError(f"k must be positive; got {k}")
        self.shard = shard
        self._k = k
        self._stats = AccessStats()
        self._iterations = 0
        self._rounds = 0
        self._wall_s = 0.0
        self._done = False
        p_q = self.result_sequences(query)
        self._search: tuple[_WorkingSet, TBClipIterator] | None = None
        if p_q:
            self._search = self._open(query, p_q, k, self._stats)
        else:
            self._done = True

    @property
    def done(self) -> bool:
        return self._done

    def frontier(self) -> ShardFrontier:
        """The current bound summary (cheap; no table access)."""
        lowers: tuple[float, ...] = ()
        max_live_upper, n_live = float("-inf"), 0
        if self._search is not None:
            bounds = self._search[0]
            # Decided sequences keep valid lower bounds, so they participate;
            # the coordinator's k-th statistic only tightens with more entries.
            lowers = tuple(float(v) for v in bounds.top_lowers(self._k))
            max_live_upper, n_live = bounds.max_live_upper(), bounds.n_live
        return ShardFrontier(
            shard=self.shard,
            top_lowers=lowers,
            max_live_upper=max_live_upper,
            n_live=n_live,
            done=self._done,
            iterations=self._iterations,
        )

    def step(self, budget: int, floor: float) -> ShardFrontier:
        """Process up to ``budget`` TBClip pairs under the global floor."""
        require_positive_int(budget, "budget")
        if self._done or self._search is None:
            return self.frontier()
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
        return self.frontier()

    def finish(self) -> ShardReport:
        """Localise the surviving exact-score candidates and report."""
        if not self._done:
            raise QueryError("shard search has not converged; keep stepping")
        candidates: list[ShardCandidate] = []
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
                candidates.append(
                    ShardCandidate(
                        video_id=video_id, start=start, end=end, score=score
                    )
                )
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

    def observe(self, frontier: ShardFrontier) -> None:
        self._lowers[frontier.shard] = frontier.top_lowers

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
    candidates = [c for report in reports for c in report.candidates]
    # Exactly the single-repository ranking: score descending, ties by the
    # stable slot order of the merged P_q — global video ingestion order,
    # then local start.
    candidates.sort(key=lambda c: (-c.score, order[c.video_id], c.start))
    stats = AccessStats()
    for report in reports:
        stats = stats.merged_with(report.stats)
    return DistributedTopKResult(
        query=query,
        k=k,
        rows=tuple(c.row for c in candidates[:k]),
        stats=stats,
        per_shard=tuple(sorted(reports, key=lambda r: r.shard)),
        rounds=rounds,
    )


# -- executors -----------------------------------------------------------------------


def _run_local(
    searches: Sequence[ShardSearch], frontier: GlobalFrontier, budget: int
) -> tuple[list[ShardReport], int]:
    """The coordinator's rounds over shards held in this process, stepped
    one after the other."""
    rounds = 0
    while any(not search.done for search in searches):
        # Barrier semantics: every shard steps under the floor composed at
        # the *previous* round's end, whatever the executor, so accounting
        # is executor-invariant.
        floor = frontier.floor
        for search in searches:
            if not search.done:
                frontier.observe(search.step(budget, floor))
        rounds += 1
    return [search.finish() for search in searches], rounds


def _shard_worker(
    conn: multiprocessing.connection.Connection,
    source: "Path | VideoRepository",
    query: Query,
    k: int,
    scoring: ScoringScheme | None,
    config: RankingConfig | None,
    shard: int,
) -> None:
    """Process-executor worker: open the shard, answer step/finish calls.

    When ``source`` is a path the shard maps its format-3 arena read-only
    — O(1), and its column pages are shared with every sibling
    worker through the OS page cache.
    """
    try:
        repository = (
            VideoRepository.load(source)
            if isinstance(source, Path)
            else source
        )
        search = ShardSearch(repository, query, k, scoring, config, shard)
        while True:
            message = conn.recv()
            if message[0] == "step":
                conn.send(search.step(message[1], message[2]))
            elif message[0] == "finish":
                conn.send(search.finish())
                return
            else:  # pragma: no cover - protocol guard
                raise ConfigurationError(f"unknown command {message[0]!r}")
    except BaseException as exc:  # surface worker faults to the coordinator
        try:
            conn.send(("error", repr(exc)))
        except (BrokenPipeError, OSError):  # reprolint: disable=RL004 - coordinator is gone; the re-raise below still surfaces the fault in the worker's exit code
            pass
        raise
    finally:
        conn.close()


def _receive(conn: multiprocessing.connection.Connection) -> object:
    payload = conn.recv()
    if isinstance(payload, tuple) and payload and payload[0] == "error":
        raise QueryError(f"shard worker failed: {payload[1]}")
    return payload


def _run_process(
    sharded: ShardedRepository,
    query: Query,
    k: int,
    scoring: ScoringScheme | None,
    config: RankingConfig | None,
    frontier: GlobalFrontier,
    budget: int,
) -> tuple[list[ShardReport], int]:
    # Prefer fork (cheap, inherits in-memory shards when unsaved); spawn
    # remains correct because every message crossing the pipe is a small
    # picklable dataclass and unsaved shards pickle whole.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    sources: list[Path | VideoRepository]
    if sharded.path is not None:
        sources = list(ShardedRepository.shard_paths(sharded.path))
    else:
        sources = list(sharded.shards)
    workers: list[
        tuple[multiprocessing.connection.Connection, multiprocessing.process.BaseProcess]
    ] = []
    try:
        for shard, source in enumerate(sources):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_shard_worker,
                args=(child_conn, source, query, k, scoring, config, shard),
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers.append((parent_conn, process))
        active = set(range(len(workers)))
        rounds = 0
        while active:
            floor = frontier.floor
            for shard in sorted(active):
                workers[shard][0].send(("step", budget, floor))
            finished: list[int] = []
            for shard in sorted(active):
                summary = _receive(workers[shard][0])
                assert isinstance(summary, ShardFrontier)
                frontier.observe(summary)
                if summary.done:
                    finished.append(shard)
            active.difference_update(finished)
            rounds += 1
        reports: list[ShardReport] = []
        for conn, _ in workers:
            conn.send(("finish",))
            report = _receive(conn)
            assert isinstance(report, ShardReport)
            reports.append(report)
        return reports, rounds
    finally:
        for conn, process in workers:
            conn.close()
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - hung worker guard
                process.terminate()
                process.join(timeout=5)


def sharded_top_k(
    sharded: ShardedRepository,
    query: Query,
    k: int,
    scoring: ScoringScheme | None = None,
    config: RankingConfig | None = None,
    *,
    executor: DistributedExecutor = "serial",
    round_budget: int = DEFAULT_ROUND_BUDGET,
) -> DistributedTopKResult:
    """Scatter-gather top-K over a sharded repository.

    Result rows are identical to running exact-score RVAQ over the merged
    single repository, for every executor and shard count; per-shard
    access accounting is merged into ``stats``, and each shard's wall
    seconds stay on its :class:`ShardReport` in ``per_shard``.
    """
    require_positive_int(k, "k")
    require_positive_int(round_budget, "round_budget")
    require_labels(sharded.iter_ingests(), query)
    frontier = GlobalFrontier(sharded.n_shards, k)
    if executor == "process":
        reports, rounds = _run_process(
            sharded, query, k, scoring, config, frontier, round_budget
        )
    elif executor == "serial":
        searches = [
            ShardSearch(shard_repo, query, k, scoring, config, shard)
            for shard, shard_repo in enumerate(sharded.shards)
        ]
        reports, rounds = _run_local(searches, frontier, round_budget)
    else:
        raise ConfigurationError(f"unknown executor {executor!r}")
    return _gather(sharded, query, k, reports, rounds)
