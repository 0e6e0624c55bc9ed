"""RVAQ — ranked top-K video action queries over a pre-processed store
(Algorithm 4).

Given the per-label individual sequences and clip score tables produced at
ingestion (§4.2), RVAQ

1. intersects the individual sequences into the query's result sequences
   ``P_q`` (Eq. 12, an interval sweep);
2. maintains, per sequence, upper and lower score bounds refined by each
   ``(c_top, c_btm)`` pair the TBClip iterator yields (Eqs. 13–14);
3. tracks the decision frontier with the two priority sets
   ``PQ_lo^K`` / ``PQ_up^¬K`` and stops as soon as the K best lower bounds
   dominate every other sequence's upper bound (Eq. 15);
4. grows the skip set ``C_skip`` with the clips of sequences decided either
   way, sparing TBClip any further work on them (§4.3).

Execution strategy: a TBClip pair costs the (at most two) sequences it
touched plus one unmasked array pass over the sequences that can still
matter.  Bound state lives in the NumPy columns of a :class:`_WorkingSet`,
compacted in ``P_q`` order: a clip is folded into the touched slot as a
scalar, only the global terms of Eqs. 13–14 (``s_top`` / ``s_btm`` against
the missing counts) run array-wide, and a decided sequence leaves the
working set once it is provably out for good.  ``b_lo^K`` is a k-th order
statistic, ``b_up^¬K`` a maximum over the rest.  The kernels perform the
same IEEE operations per element as the scalar path (see
:mod:`repro.core.scoring`), so serial results — ranked tuples,
``AccessStats``, ``iterations`` — are bit-identical to the original
row-at-a-time implementation, preserved as ``ReferenceRVAQ`` in
``tests/reference/rvaq.py`` and enforced by the equivalence suite in
``tests/core/test_rvaq_equivalence.py``.

``C_skip`` is one flag byte per global clip id, shared by reference with
the TBClip iterator: membership is ``skip[cid]``, growth a slice
assignment per decided sequence.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.core.config import RankingConfig
from repro.core.query import Query
from repro.core.scoring import PaperScoring, ScoringScheme
from repro.core.tbclip import Pair, TBClipIterator
from repro.errors import QueryError
from repro.storage.access import AccessStats
from repro.storage.repository import VideoRepository
from repro.utils.intervals import Interval, IntervalSet


@dataclass(frozen=True)
class RankedSequence:
    """One answer sequence with its (possibly bounded) score."""

    interval: Interval
    lower_bound: float
    upper_bound: float

    @property
    def exact(self) -> bool:
        return self.lower_bound == self.upper_bound

    @property
    def score(self) -> float:
        """The ranking score: the proven lower bound (exact when closed)."""
        return self.lower_bound


@dataclass(frozen=True)
class TopKResult:
    """Output of one RVAQ (or baseline) execution."""

    query: Query
    ranked: tuple[RankedSequence, ...]
    stats: AccessStats
    p_q: IntervalSet
    iterations: int = 0

    @property
    def sequences(self) -> IntervalSet:
        return IntervalSet(r.interval for r in self.ranked)


class _WorkingSet:
    """Eq. 13–14 bound state of the sequences that can still matter.

    Sequence ``slot`` of ``P_q`` (in start order) sits at position
    ``position[slot]`` of the aligned columns, which keep slot order:
    ``up_partial`` / ``lo_partial`` are the aggregated scores of the clips
    folded from the top / bottom walks (``S_up`` / ``S_lo``), ``up_missing``
    / ``lo_missing`` the clips each bound has not yet counted (``L_up`` /
    ``L_lo``), and ``upper`` / ``lower`` the current bounds.

    ``live`` is True while the sequence is undecided.  ``frozen`` marks the
    positions whose bounds no longer move — decided sequences, and live
    ones with every clip folded from the top (exact) — which the array-wide
    refresh passes over and then restores.

    A decided sequence is *dropped* (``position[slot] = -1``) once both its
    bounds are strictly below ``b_lo^K``: lower bounds and ``b_lo^K`` never
    fall, so it can neither re-enter the top set nor tie for it, and all it
    still contributes is its frozen upper bound to ``b_up^¬K``, folded into
    ``dropped_upper_max``.  The ``lower < b_lo^K`` clause matters: a fully
    folded sequence whose ``lo_partial`` and ``up_partial`` sums differ in
    the last ulp can be decided out (``upper < b_lo^K``) while its lower
    bound *is* the K-th, and must stay counted.
    """

    #: The columns aligned by position, compacted together.
    _ALIGNED = (
        "slots",
        "up_partial",
        "lo_partial",
        "up_missing",
        "lo_missing",
        "upper",
        "lower",
        "live",
        "frozen",
    )

    __slots__ = (
        "scoring",
        "intervals",
        "starts",
        "ends",
        "skip",
        "position",
        *_ALIGNED,
        "frozen_at",
        "n_live",
        "dropped_upper_max",
    )

    def __init__(self, p_q: IntervalSet, span: int, scoring: ScoringScheme) -> None:
        self.scoring = scoring
        self.intervals: list[Interval] = list(p_q)
        self.starts: list[int] = [iv.start for iv in self.intervals]
        self.ends: list[int] = [iv.end for iv in self.intervals]
        # C_skip starts as every clip id outside P_q (§4.3).
        self.skip = bytearray(b"\x01") * span
        for start, end in zip(self.starts, self.ends):
            self.skip[start : end + 1] = bytes(end + 1 - start)
        n = len(self.intervals)
        lengths = np.asarray(self.ends, dtype=np.int64) - np.asarray(
            self.starts, dtype=np.int64
        )
        self.slots = np.arange(n)
        self.position = np.arange(n)
        self.up_partial = np.full(n, scoring.identity, dtype=np.float64)
        self.lo_partial = np.full(n, scoring.identity, dtype=np.float64)
        self.up_missing = lengths + 1
        self.lo_missing = lengths + 1
        self.upper = np.full(n, np.inf, dtype=np.float64)
        self.lower = np.full(n, -np.inf, dtype=np.float64)
        self.live = np.ones(n, dtype=bool)
        self.frozen = np.zeros(n, dtype=bool)
        self.frozen_at = np.flatnonzero(self.frozen)
        self.n_live = n
        self.dropped_upper_max = float("-inf")

    @property
    def n_sequences(self) -> int:
        """``|P_q|`` — dropped sequences included."""
        return len(self.intervals)

    # -- per-pair maintenance -------------------------------------------------------

    def fold(self, cid: int, score: float, top: bool) -> None:
        """Fold one returned clip into the sequence containing it."""
        slot = bisect_right(self.starts, cid) - 1
        if slot < 0 or cid > self.ends[slot]:
            return
        at = self.position[slot]
        if at < 0 or not self.live[at]:
            return  # decided: bounds frozen, nothing to maintain
        partial, missing = (
            (self.up_partial, self.up_missing)
            if top
            else (self.lo_partial, self.lo_missing)
        )
        partial[at] = self.scoring.combine(float(partial[at]), score)
        missing[at] -= 1
        if top and missing[at] == 0:
            # Every clip folded from the top: the upper bound is the exact
            # score and the lower bound rises to it, for good.
            self.upper[at] = partial[at]
            self.lower[at] = max(self.lower[at], partial[at])
            self.frozen[at] = True
            self.frozen_at = np.flatnonzero(self.frozen)

    def refresh(
        self, s_top: float, s_btm: float, has_top: bool, has_btm: bool
    ) -> None:
        """Eqs. 13–14, plus the sub-sequence dominance strengthening.

        Upper bound: every clip not yet seen from the top scores at most
        ``s_top`` (Eq. 13).  Lower bound: the best of

        * Eq. 14 — every clip not yet seen from the bottom scores at least
          ``s_btm``;
        * the aggregate of the clips already folded from either direction —
          a *sub-sequence* of the sequence, whose score the full sequence
          dominates by the §4.1 contract.  This makes the leader's lower
          bound grow with the fast top walk instead of waiting for the
          bottom walk to reach its (high-scoring) clips, which is what lets
          ``C_skip`` prune losing sequences early.

        Every term runs unmasked over the working set; the few frozen
        positions are put back afterwards.
        """
        scoring = self.scoring
        frozen_at = self.frozen_at
        frozen_lower = self.lower[frozen_at]
        if has_top:
            frozen_upper = self.upper[frozen_at]
            self.upper = scoring.combine_block(
                scoring.repeat_block(s_top, self.up_missing), self.up_partial
            )
            self.upper[frozen_at] = frozen_upper
        proven = np.maximum(self.up_partial, self.lo_partial)
        if has_btm:
            proven = np.maximum(
                proven,
                scoring.combine_block(
                    scoring.repeat_block(s_btm, self.lo_missing), self.lo_partial
                ),
            )
        np.maximum(self.lower, proven, out=self.lower)
        self.lower[frozen_at] = frozen_lower

    def retire(self, decided: np.ndarray, b_lo_k: float) -> None:
        """Freeze the newly decided positions, grow ``C_skip`` with their
        clips, and drop every decided sequence that is out for good."""
        self.live[decided] = False
        self.frozen[decided] = True
        self.n_live -= len(decided)
        skip = self.skip
        for slot in self.slots[decided].tolist():
            start, end = self.starts[slot], self.ends[slot]
            skip[start : end + 1] = b"\x01" * (end + 1 - start)
        gone = ~self.live & (self.upper < b_lo_k) & (self.lower < b_lo_k)
        if gone.any():
            self.dropped_upper_max = max(
                self.dropped_upper_max, float(self.upper[gone].max())
            )
            self.position[self.slots[gone]] = -1
            keep = ~gone
            for name in self._ALIGNED:
                setattr(self, name, getattr(self, name)[keep])
            self.position[self.slots] = np.arange(len(self.slots))
        self.frozen_at = np.flatnonzero(self.frozen)

    # -- read accessors ----------------------------------------------------------------

    def top_lowers(self, k: int) -> np.ndarray:
        """The K best lower bounds, descending.  Dropped sequences sit
        strictly below ``b_lo^K`` and cannot be among them."""
        return np.sort(self.lower)[::-1][:k]

    def max_live_upper(self) -> float:
        """Highest upper bound of an undecided sequence (``-inf`` if none)."""
        if not self.n_live:
            return float("-inf")
        return float(self.upper[self.live].max())

    def exact_live(self) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, scores)`` of the undecided sequences whose bounds have
        met."""
        exact = self.live & (self.lower == self.upper)
        return self.slots[exact], self.lower[exact]

    def ranked(self, k: int) -> list[RankedSequence]:
        """The K best sequences by ``(lower, upper)`` descending, ties in
        slot order.  Only the working set competes: at least K of its
        lower bounds reach ``b_lo^K``, every dropped one is below it."""
        order = np.lexsort((-self.upper, -self.lower))[:k]
        return [
            RankedSequence(
                interval=self.intervals[self.slots[at]],
                lower_bound=float(self.lower[at]),
                upper_bound=float(self.upper[at]),
            )
            for at in order
        ]


class RVAQ:
    """Algorithm 4 over a :class:`VideoRepository`."""

    def __init__(
        self,
        repository: VideoRepository,
        scoring: ScoringScheme | None = None,
        config: RankingConfig | None = None,
        *,
        enable_skip: bool = True,
    ) -> None:
        self._repo = repository
        self._scoring = scoring or PaperScoring()
        self._config = config or RankingConfig()
        self._enable_skip = enable_skip

    # -- public API ----------------------------------------------------------------

    @staticmethod
    def _split_labels(query: Query) -> tuple[str, list[str]]:
        """The primary action plus every other predicate label.

        Extra actions (the footnote-3 multi-action extension) rank through
        the same machinery as object predicates: their per-clip scores
        enter ``g`` alongside the object scores, and their individual
        sequences join the Eq. 12 intersection.
        """
        if not query.actions:
            raise QueryError("RVAQ expects at least one action predicate")
        primary, *extra = query.actions
        return primary, [*extra, *query.objects, *query.relationships]

    def result_sequences(self, query: Query) -> IntervalSet:
        """``P_q = P_a ⊗ P_o1 ⊗ … ⊗ P_oI`` (Eq. 12) in global clip ids."""
        primary, others = self._split_labels(query)
        return self._repo.result_sequences([primary, *others])

    def top_k(self, query: Query, k: int | None = None) -> TopKResult:
        """The K highest-scoring result sequences (Algorithm 4)."""
        if k is None:
            k = self._config.default_k
        if k <= 0:
            raise QueryError(f"k must be positive; got {k}")
        p_q = self.result_sequences(query)
        stats = AccessStats()
        if not p_q:
            return TopKResult(query=query, ranked=(), stats=stats, p_q=p_q)

        bounds, iterator = self._open(query, p_q, k, stats)
        iterations = 0
        while True:
            pair = iterator.next_pair()
            iterations += 1
            if iterator.drained(pair) or self._consume_pair(bounds, pair, k):
                break

        return TopKResult(
            query=query,
            ranked=tuple(bounds.ranked(k)),
            stats=stats,
            p_q=p_q,
            iterations=iterations,
        )

    # -- the Algorithm-4 step -----------------------------------------------------------

    def _open(
        self, query: Query, p_q: IntervalSet, k: int, stats: AccessStats
    ) -> tuple[_WorkingSet, TBClipIterator]:
        """Bound state and TBClip iterator of one execution over ``P_q``."""
        bounds = _WorkingSet(p_q, self._repo.id_span, self._scoring)
        primary, others = self._split_labels(query)
        iterator = TBClipIterator(
            action_table=self._repo.table(primary),
            object_tables=[self._repo.table(label) for label in others],
            scoring=self._scoring,
            skip=bounds.skip,
            stats=stats,
            # With K >= |P_q| membership is settled and only score
            # exactness remains, which the top drain alone provides.
            need_bottom=bounds.n_sequences > k,
        )
        return bounds, iterator

    def _consume_pair(
        self,
        bounds: _WorkingSet,
        pair: Pair,
        k: int,
        floor: float = float("-inf"),
    ) -> bool:
        """Fold one TBClip pair into the bounds and decide; True when the
        search has converged (Eq. 15)."""
        c_top, s_top, c_btm, s_btm = pair
        if c_top is not None:
            bounds.fold(c_top, s_top, top=True)
        if c_btm is not None:
            bounds.fold(c_btm, s_btm, top=False)
        bounds.refresh(s_top, s_btm, c_top is not None, c_btm is not None)
        return self._apply_decisions(bounds, k, floor)

    def _apply_decisions(
        self, bounds: _WorkingSet, k: int, floor: float
    ) -> bool:
        """Maintain ``PQ_lo^K`` / ``PQ_up^¬K``, grow ``C_skip`` and test the
        stopping condition (Eq. 15).

        ``PQ_lo^K`` materialises as the k-th order statistic ``b_lo^K``
        (one ``np.partition``) plus the positions of the current top set;
        ``PQ_up^¬K`` as the maximum ``b_up^¬K`` over the rest, dropped
        sequences included.  Ties on ``b_lo^K`` resolve to the lowest slot
        indices — exactly the stable descending sort of the scalar
        implementation — because the working set keeps slot order.

        ``floor`` is an *external* proven lower bound on the global K-th
        answer score — the scatter-gather coordinator's composed bound
        (:mod:`repro.core.distributed`).  Sequences whose upper bound falls
        strictly below ``max(b_lo^K, floor)`` are decided out; at ``-inf``
        the behaviour (and the single-repository results) are untouched.
        """
        lower, upper = bounds.lower, bounds.upper
        n, m = bounds.n_sequences, len(lower)
        exact_scores = self._config.require_exact_scores
        b_lo_k = float(np.partition(lower, m - k)[m - k]) if n >= k else float("-inf")
        reach = (lower >= b_lo_k).nonzero()[0]
        tied = lower[reach] == b_lo_k
        above = reach[~tied]
        top = np.concatenate((above, reach[tied][: k - len(above)]))
        if n > k:
            rest = upper.copy()
            rest[top] = -np.inf
            b_up_not_k = max(float(rest.max()), bounds.dropped_upper_max)
        else:
            b_up_not_k = float("-inf")

        if n <= k:
            # Every sequence is in the answer; keep refining until scores
            # are exact — this is why RVAQ converges to Pq-Traverse as K
            # approaches the number of result sequences (Table 8's last
            # column).
            converged = bool((lower == upper).all())
        elif b_lo_k < b_up_not_k:
            converged = False
        elif exact_scores:
            # Membership is decided; keep refining the winners until their
            # scores (and hence their order) are exact.
            converged = bool((lower[top] == upper[top]).all())
        else:
            converged = True

        if self._enable_skip:
            live = bounds.live
            cut = max(b_lo_k, floor)
            below = (upper < cut).nonzero()[0]
            decided = below[live[below]]
            if n > k and not exact_scores:
                winners = top[lower[top] > b_up_not_k]
                winners = winners[live[winners] & ~(upper[winners] < cut)]
                decided = np.concatenate((decided, winners))
            if len(decided):
                bounds.retire(decided, b_lo_k)
        return converged
