"""Answer checks.  Every function returns True only when the rows it is
given pass; ``run.py --selfcheck`` feeds each one a corrupted row set to
show it can return False.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Sequence

Span = tuple[int, int]


def rows_equal(
    got: Sequence[Sequence[Any]], expected: Sequence[Sequence[Any]]
) -> bool:
    """Two answers row for row, order included: an online result's
    sequences against the oracle's; the ``sequence`` events a subscriber
    read — across a migration — against the ``final`` result (nothing lost,
    nothing doubled); one statement's localized rows against the oracle's
    (lists from JSON compare equal to tuples)."""
    return [tuple(r) for r in got] == [tuple(r) for r in expected]


def ranked_f1(
    intervals: Sequence[Span], k: int, exact: Mapping[Span, float]
) -> float:
    """F1 of a top-K answer's exact scores against the ``k`` highest exact
    scores of ``P_q``, as multisets (ties may swap members, so sequences
    are compared by score).  1.0 while the paper's guarantee holds; an
    empty ``P_q`` answered by no rows is a perfect answer."""
    best = sorted((round(s, 6) for s in exact.values()), reverse=True)[:k]
    mine = [round(exact[iv], 6) for iv in intervals if iv in exact]
    if not best and not intervals:
        return 1.0
    remaining = list(best)
    hits = 0
    for score in mine:
        if score in remaining:
            remaining.remove(score)
            hits += 1
    if hits == 0:
        return 0.0
    precision = hits / len(intervals)
    recall = hits / len(best)
    return 2 * precision * recall / (precision + recall)


def ranked_rows_valid(
    intervals: Sequence[Span],
    scores: Sequence[float],
    k: int,
    exact: Mapping[Span, float],
) -> bool:
    """A top-K answer against the Pq-Traverse oracle.

    ``exact`` maps every sequence of ``P_q`` to its exactly computed score.
    The answer holds when it has ``min(k, |P_q|)`` distinct rows, each a
    sequence of ``P_q``; its own scores do not increase down the ranking;
    and the exact scores of its rows are, as a multiset, the ``k`` highest
    exact scores (the paper's guarantee).
    """
    if len(intervals) != min(k, len(exact)) or len(scores) != len(intervals):
        return False
    if len(set(intervals)) != len(intervals):
        return False
    if any(a < b for a, b in zip(scores, scores[1:])):
        return False
    return ranked_f1(intervals, k, exact) == 1.0


def digest(rows: Any) -> str:
    """SHA-256 of a workload's canonical rows (scores rounded to 6 dp)."""

    def canon(value: Any) -> Any:
        if isinstance(value, float):
            return round(value, 6)
        if isinstance(value, Mapping):
            return {str(k): canon(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        return value

    text = json.dumps(canon(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
