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

Execution strategy (DESIGN.md, "Offline top-K pipeline"): a TBClip pair
costs the (at most two) sequences it touched plus one unmasked array pass
over the rows of a :class:`_WorkingSet` — one row per sequence that can
still matter, or per length class of the sequences no clip has reached.
The kernels perform the same IEEE operations per element as the scalar
path (:mod:`repro.core.scoring`), so serial results — ranked tuples,
``AccessStats``, ``iterations`` — are bit-identical to the row-at-a-time
``ReferenceRVAQ`` of ``tests/reference/rvaq.py``, enforced by
``tests/core/test_rvaq_equivalence.py`` and ``test_rvaq_class_rows.py``.

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
from repro.errors import ConfigurationError, QueryError
from repro.storage.access import AccessStats
from repro.storage.repository import VideoRepository
from repro.utils.intervals import Interval, IntervalSet
from repro.utils.validation import require_k


#: ``position`` of a sequence that its length's shared row stands for.
_SHARED = -2


@dataclass(frozen=True)
class RankedSequence:
    """One answer sequence with its (possibly bounded) score."""

    interval: Interval
    lower_bound: float
    upper_bound: float

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


class _WorkingSet:
    """Eq. 13–14 bound state of the sequences that can still matter.

    Row ``position[slot]`` belongs to sequence ``slot`` of ``P_q`` (in start
    order): ``up_partial`` / ``lo_partial`` are the aggregated scores of the
    clips folded from the top / bottom walks (``S_up`` / ``S_lo``),
    ``up_missing`` / ``lo_missing`` the clips each bound has not yet counted
    (``L_up`` / ``L_lo``, whole numbers held as doubles), ``upper`` /
    ``lower`` the current bounds.  ``live`` is True while the sequence is
    undecided; ``frozen`` marks the rows whose bounds no longer move —
    decided sequences, and live ones with every clip folded from the top
    (exact) — which the array-wide refresh passes over and then restores.

    Sequences of equal length that no clip has been folded into went through
    the same arithmetic at every pair, so their columns and flags are equal
    bit for bit under any scoring scheme.  Once ``b_lo^K`` is strictly above
    their lower bounds they are neither in the top set nor tied for it, and
    :meth:`regroup` keeps one *shared* row a length (``slots`` holds ``n +
    length``; members have ``position[slot] == _SHARED``), refreshed and
    decided by the same kernels.  A member gets a row of its own — a copy,
    appended — the first time a clip lands in it; a shared row whose lower
    bound reaches ``b_lo^K`` after all is split into one row a member before
    anything is decided.  Shared rows sit in front and own rows in arrival
    order, so ties are broken on ``slots``, not row order (DESIGN.md,
    "Offline top-K pipeline", has the argument in full).

    A decided row is *dropped* (``position = -1``) once both its bounds are
    strictly below ``b_lo^K``: lower bounds and ``b_lo^K`` never fall, so it
    can neither re-enter the top set nor tie for it, and all it still
    contributes is its frozen upper bound to ``b_up^¬K``, folded into
    ``dropped_upper_max``.  The ``lower < b_lo^K`` clause matters: a fully
    folded sequence whose ``lo_partial`` and ``up_partial`` sums differ in
    the last ulp can be decided out (``upper < b_lo^K``) while its lower
    bound *is* the K-th, and must stay counted.
    """

    def __init__(self, p_q: IntervalSet, span: int, scoring: ScoringScheme) -> None:
        self.scoring = scoring
        first, last = p_q.columns()
        self.starts: list[int] = first.tolist()
        self.ends: list[int] = last.tolist()
        #: ``|P_q|`` — dropped sequences included.
        self.n_sequences = n = len(self.starts)
        # C_skip starts as every clip id outside P_q (§4.3): the sequences
        # neither overlap nor touch, so their edges are 2n distinct ids.
        edges = np.zeros(span + 1, dtype=np.int8)
        edges[first] = 1
        edges[last + 1] = -1
        self.skip = bytearray(np.cumsum(edges[:span], dtype=np.int8) == 0)
        self.lengths = (last - first + 1).astype(np.float64)
        # Room for a row a sequence plus a shared row a length; the row of
        # length ``l``'s shared one is ``position[n + l]``.
        room = n + int(self.lengths.max(initial=0)) + 1
        self._floats = np.empty((6, room), dtype=np.float64)
        self._floats[:2] = scoring.identity
        self._floats[2:4, :n] = self.lengths
        self._floats[4], self._floats[5] = np.inf, -np.inf
        self._flags = np.zeros((2, room), dtype=bool)
        self._flags[0] = True
        self._slots = np.arange(room)
        self.position = np.arange(room)
        self.position[n:] = -1
        #: Members per shared row, by length; empty until they are built.
        self.members: dict[int, int] = {}
        self.n_live = n
        self.dropped_upper_max = float("-inf")
        self._cut(n)

    def _cut(self, rows: int) -> None:
        """Point the named columns at the first ``rows`` backing entries."""
        self.slots = self._slots[:rows]
        (
            self.up_partial, self.lo_partial, self.up_missing, self.lo_missing,
            self.upper, self.lower,
        ) = self._floats[:, :rows]
        self.live, self.frozen = self._flags[:, :rows]

    def _keep(self, rows: np.ndarray) -> None:
        """Make ``rows``, in that order, the working set."""
        for backing in (self._floats, self._flags, self._slots):
            backing[..., : len(rows)] = backing.take(rows, axis=-1)
        self._cut(len(rows))
        self.position[self.slots] = np.arange(len(rows))

    # -- one row per length class -------------------------------------------------

    def regroup(self, reach: np.ndarray) -> bool:
        """Called with the rows whose lower bound reaches ``b_lo^K``: split
        the shared rows among them, or — once, as soon as no live untouched
        sequence is among them — build the shared rows.  True when the rows
        changed and the caller has to look again."""
        n = self.n_sequences
        if self.slots[reach[0]] >= n:
            for row in reach[self.slots[reach] >= n].tolist():
                for slot in self._members_of(row).tolist():
                    self._own_row(slot, int(self.slots[row]) - n, row)
            return True
        if self.members or len(reach) == len(self.slots):
            return False
        full = self.lengths[self.slots]
        fresh = self.live & (self.up_missing == full) & (self.lo_missing == full)
        if fresh[reach].any() or not fresh.any():
            return False
        lengths, first, counts = np.unique(
            full[fresh].astype(np.intp), return_index=True, return_counts=True
        )
        members = self.slots[fresh]
        self._keep(np.concatenate((fresh.nonzero()[0][first], (~fresh).nonzero()[0])))
        self.position[members] = _SHARED
        self.slots[: len(lengths)] = n + lengths
        self.position[n + lengths] = np.arange(len(lengths))
        self.members = dict(zip(lengths.tolist(), counts.tolist()))
        return True

    def _members_of(self, row: int) -> np.ndarray:
        """Slots of the sequences shared row ``row`` stands for."""
        n = self.n_sequences
        return np.flatnonzero(
            (self.position[:n] == _SHARED) & (self.lengths == self.slots[row] - n)
        )

    def _own_row(self, slot: int, length: int, shared: int) -> int:
        """Append a row for ``slot``, a copy of its class's shared row; left
        without members that one stops counting — no bounds, not live —
        until it is dropped."""
        at = len(self.slots)
        self._floats[:, at] = self._floats[:, shared]
        self._flags[:, at] = self._flags[:, shared]
        self._slots[at] = slot
        self.position[slot] = at
        self.members[length] -= 1
        if not self.members[length]:
            self._floats[4:, shared] = -np.inf
            self._flags[:, shared] = False, True
        self._cut(at + 1)
        return at

    # -- per-pair maintenance -------------------------------------------------------

    def fold(self, cid: int, score: float, top: bool) -> None:
        """Fold one returned clip into the sequence containing it."""
        slot = bisect_right(self.starts, cid) - 1
        if slot < 0 or cid > self.ends[slot]:
            return
        at = self.position.item(slot)
        if at == _SHARED:
            # First clip of this sequence: from here on it has a history of
            # its own (unless its whole class is already decided).
            length = self.ends[slot] - self.starts[slot] + 1
            shared = self.position.item(self.n_sequences + length)
            if shared < 0 or not self.live[shared]:
                return
            at = self._own_row(slot, length, shared)
        elif at < 0 or not self.live[at]:
            return  # decided: bounds frozen, nothing to maintain
        partial, missing = (
            (self.up_partial, self.up_missing)
            if top
            else (self.lo_partial, self.lo_missing)
        )
        partial[at] = folded = self.scoring.combine(partial.item(at), score)
        left = missing.item(at) - 1.0
        if left < 0:
            # What ``repeat_block`` would refuse: the refresh below runs the
            # unchecked kernel because this is the only place counts shrink.
            raise ConfigurationError("repeat times must be >= 0")
        missing[at] = left
        if top and left == 0:
            # Every clip folded from the top: the upper bound is the exact
            # score and the lower bound rises to it, for good.
            self.upper[at] = folded
            self.lower[at] = max(self.lower.item(at), folded)
            self.frozen[at] = True

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
        rows are put back afterwards.
        """
        scoring = self.scoring
        frozen_at = self.frozen.nonzero()[0]
        frozen_lower = self.lower[frozen_at]
        if has_top:
            frozen_upper = self.upper[frozen_at]
            self.upper[:] = scoring.combine_block(
                scoring._repeat_counted(s_top, self.up_missing), self.up_partial
            )
            self.upper[frozen_at] = frozen_upper
        proven = np.maximum(self.up_partial, self.lo_partial)
        if has_btm:
            proven = np.maximum(
                proven,
                scoring.combine_block(
                    scoring._repeat_counted(s_btm, self.lo_missing), self.lo_partial
                ),
            )
        np.maximum(self.lower, proven, out=self.lower)
        self.lower[frozen_at] = frozen_lower

    def retire(self, decided: np.ndarray, b_lo_k: float) -> None:
        """Freeze the newly decided rows, grow ``C_skip`` with their
        sequences' clips, and drop every decided row that is out for good."""
        self.live[decided] = False
        self.frozen[decided] = True
        n, skip = self.n_sequences, self.skip
        for row, slot in zip(decided.tolist(), self.slots[decided].tolist()):
            # A shared row goes with every sequence it stands for.
            for gone in [slot] if slot < n else self._members_of(row).tolist():
                start, end = self.starts[gone], self.ends[gone]
                skip[start : end + 1] = b"\x01" * (end + 1 - start)
                self.n_live -= 1
        out = ~self.live & (self.upper < b_lo_k) & (self.lower < b_lo_k)
        if out.any():
            self.dropped_upper_max = max(
                self.dropped_upper_max, float(self.upper[out].max())
            )
            self.position[self.slots[out]] = -1
            self._keep((~out).nonzero()[0])

    # -- read accessors ----------------------------------------------------------------

    def top_lowers(self, k: int) -> np.ndarray:
        """The K best lower bounds, descending.  Dropped sequences and
        shared rows sit strictly below ``b_lo^K`` and are not among them."""
        return np.sort(self.lower)[::-1][:k]

    def exact_live(self) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, scores)`` of the undecided sequences whose bounds have
        met — each under its own slot: a shared row among them is split."""
        while True:
            exact = (self.live & (self.lower == self.upper)).nonzero()[0]
            if not len(exact) or self.slots[exact[0]] < self.n_sequences:
                return self.slots[exact], self.lower[exact]
            self.regroup(exact)

    def ranked(self, k: int) -> list[RankedSequence]:
        """The K best sequences by ``(lower, upper)`` descending, ties in
        slot order.  Only rows of the working set compete, and no shared
        one: at least K own rows reach ``b_lo^K``, every other is below."""
        order = np.lexsort((self.slots, -self.upper, -self.lower))[:k]
        return [
            RankedSequence(
                interval=Interval(self.starts[slot], self.ends[slot]),
                lower_bound=float(self.lower[at]),
                upper_bound=float(self.upper[at]),
            )
            for at, slot in zip(order.tolist(), self.slots[order].tolist())
        ]


def ranked_labels(query: Query) -> list[str]:
    """The labels a ranked query scores by, primary action first.  Extra
    actions (the footnote-3 multi-action extension) rank through the same
    machinery as object predicates: their per-clip scores enter ``g``
    alongside the object scores, and their individual sequences join the
    Eq. 12 intersection."""
    if not query.actions:
        raise QueryError("a ranked query needs at least one action predicate")
    return [*query.actions, *query.objects, *query.relationships]


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

    def result_sequences(self, query: Query) -> IntervalSet:
        """``P_q = P_a ⊗ P_o1 ⊗ … ⊗ P_oI`` (Eq. 12) in global clip ids."""
        return self._repo.result_sequences(ranked_labels(query))

    def top_k(self, query: Query, k: int | None = None) -> TopKResult:
        """The K highest-scoring result sequences (Algorithm 4)."""
        k = require_k(self._config.default_k if k is None else k)
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
        action_table, *object_tables = map(self._repo.table, ranked_labels(query))
        iterator = TBClipIterator(
            action_table=action_table,
            object_tables=object_tables,
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
        implementation.  The order statistic is taken over the rows: a
        shared row counts once for all its members, which is the same
        number as long as it stays strictly below (``regroup`` sees to it).

        ``floor`` is an *external* proven lower bound on the global K-th
        answer score — the scatter-gather coordinator's composed bound
        (:mod:`repro.core.distributed`).  Sequences whose upper bound falls
        strictly below ``max(b_lo^K, floor)`` are decided out; at ``-inf``
        the behaviour (and the single-repository results) are untouched.
        """
        n = bounds.n_sequences
        exact_scores = self._config.require_exact_scores
        while True:
            lower, upper = bounds.lower, bounds.upper
            at = len(lower) - k
            b_lo_k = float(np.partition(lower, at)[at]) if n >= k else float("-inf")
            reach = (lower >= b_lo_k).nonzero()[0]
            if n <= k or not bounds.regroup(reach):
                break
        top = reach
        if len(reach) > k:  # more ties on b_lo^K than places: lowest slots
            tied = lower[reach] == b_lo_k
            above, ties = reach[~tied], reach[tied]
            if bounds.members:  # own rows were appended since
                ties = ties[np.argsort(bounds.slots[ties], kind="stable")]
            top = np.concatenate((above, ties[: k - len(above)]))
        if n <= k:
            # Every sequence is in the answer; keep refining until scores
            # are exact — this is why RVAQ converges to Pq-Traverse as K
            # approaches the number of result sequences (Table 8's last
            # column).
            b_up_not_k = float("-inf")
            converged = bool((lower == upper).all())
        else:
            rest = upper.copy()
            rest[top] = -np.inf
            b_up_not_k = max(float(rest.max()), bounds.dropped_upper_max)
            # Once membership is decided, exact mode keeps refining the
            # winners until their scores (and hence their order) are exact.
            converged = b_lo_k >= b_up_not_k and (
                not exact_scores or bool((lower[top] == upper[top]).all())
            )

        if self._enable_skip:
            live = bounds.live
            cut = max(b_lo_k, floor)
            decided = (upper < cut).nonzero()[0]
            if len(decided):
                decided = decided[live[decided]]
            if n > k and not exact_scores:
                winners = top[lower[top] > b_up_not_k]
                if len(winners):
                    winners = winners[live[winners] & ~(upper[winners] < cut)]
                    decided = np.concatenate((decided, winners))
            if len(decided):
                bounds.retire(decided, b_lo_k)
        return converged
