"""Offline top-K baselines (§5.1): FA, RVAQ-noSkip and Pq-Traverse.

* **FA** adapts Fagin's algorithm: parallel sorted access over the query's
  clip score tables with random-access completion of every clip seen; clips
  outside ``P_q`` are discarded; execution stops only when the score of
  *every* sequence in ``P_q`` is complete.  No lower bounds, no skipping —
  the paper's worst performer.
* **RVAQ-noSkip** is RVAQ with the dynamic skip mechanism disabled (the
  static ``C_skip`` initialisation to clips outside ``P_q`` is kept —
  without it the variant degenerates to FA and measures nothing new).
* **Pq-Traverse** walks every clip of every sequence in ``P_q`` directly,
  computes exact sequence scores, and sorts.  Its access count is constant
  in K and linear in the clips of ``P_q``.
"""

from __future__ import annotations

from repro.core.config import RankingConfig
from repro.core.query import Query
from repro.core.rvaq import RVAQ, RankedSequence, TopKResult, ranked_labels
from repro.core.scoring import PaperScoring, ScoringScheme
from repro.storage.access import AccessStats
from repro.storage.repository import VideoRepository
from repro.utils.validation import require_k


def pq_traverse(
    repository: VideoRepository,
    query: Query,
    k: int,
    scoring: ScoringScheme | None = None,
) -> TopKResult:
    """Score every sequence of ``P_q`` exactly by direct clip access."""
    scoring = scoring or PaperScoring()
    k = require_k(k)
    labels = ranked_labels(query)
    p_q = repository.result_sequences(labels)
    stats = AccessStats()
    action_table, *object_tables = map(repository.table, labels)

    ranked: list[RankedSequence] = []
    for interval in p_q:
        clip_scores = []
        for cid in interval:
            action_score = action_table.random_access(cid, stats)
            object_scores = [t.random_access(cid, stats) for t in object_tables]
            clip_scores.append(scoring.clip_score(action_score, object_scores))
        total = scoring.aggregate(clip_scores)
        ranked.append(
            RankedSequence(interval=interval, lower_bound=total, upper_bound=total)
        )
    ranked.sort(key=lambda r: r.score, reverse=True)
    return TopKResult(
        query=query, ranked=tuple(ranked[:k]), stats=stats, p_q=p_q
    )


def fagin_baseline(
    repository: VideoRepository,
    query: Query,
    k: int,
    scoring: ScoringScheme | None = None,
) -> TopKResult:
    """Fagin's algorithm adapted to sequence answers (§5.1's *FA*).

    Clips are produced in rounds of parallel sorted access; each newly seen
    clip's score is completed by random accesses to the other tables.  A
    produced clip outside ``P_q`` is disregarded.  The algorithm stops when
    every clip of every sequence in ``P_q`` has been produced, then ranks.
    """
    scoring = scoring or PaperScoring()
    k = require_k(k)
    labels = ranked_labels(query)
    p_q = repository.result_sequences(labels)
    stats = AccessStats()
    tables = [repository.table(label) for label in labels]

    membership: dict[int, int] = {}
    for seq_index, interval in enumerate(p_q):
        for cid in interval:
            membership[cid] = seq_index
    remaining = len(membership)
    clip_scores: list[dict[int, float]] = [dict() for _ in p_q]

    seen: set[int] = set()
    depth = 0
    table_len = min(len(t) for t in tables)
    while remaining > 0 and depth < table_len:
        for table in tables:
            cid, _ = table.sorted_row(depth, stats)
            if cid in seen:
                continue
            seen.add(cid)
            # Classic Fagin completion: every clip seen under sorted access
            # has its score completed by random accesses to all the other
            # tables — even clips that later turn out to lie outside P_q
            # (they are only *disregarded* after production).  This is what
            # makes FA's random-access count balloon (Table 6).
            action_score = tables[0].random_access(cid, stats)
            object_scores = [t.random_access(cid, stats) for t in tables[1:]]
            seq_index = membership.get(cid)
            if seq_index is None:
                continue  # produced, scored, and disregarded
            clip_scores[seq_index][cid] = scoring.clip_score(
                action_score, object_scores
            )
            remaining -= 1
        depth += 1

    ranked = []
    for interval, scores in zip(p_q, clip_scores):
        total = scoring.aggregate(scores.values())
        ranked.append(
            RankedSequence(interval=interval, lower_bound=total, upper_bound=total)
        )
    ranked.sort(key=lambda r: r.score, reverse=True)
    return TopKResult(
        query=query, ranked=tuple(ranked[:k]), stats=stats, p_q=p_q,
        iterations=depth,
    )


def rvaq_noskip(
    repository: VideoRepository,
    query: Query,
    k: int,
    scoring: ScoringScheme | None = None,
    config: RankingConfig | None = None,
) -> TopKResult:
    """RVAQ with the dynamic skip mechanism disabled (§5.1)."""
    return RVAQ(
        repository, scoring=scoring, config=config, enable_skip=False
    ).top_k(query, k)
