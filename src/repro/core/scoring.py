"""Scoring functions for the offline ranking framework (§4.1).

The framework is agnostic to the concrete functions as long as they satisfy
the §4.1 contract:

* ``f`` (sequence score from clip scores) is monotone in every clip score,
  dominates sub-sequences, and decomposes over a split via an aggregation
  operator ``⊙`` (Eq. 11);
* ``g`` (clip score from per-predicate scores) is monotone in each
  predicate score;
* ``h`` (per-predicate clip score from raw model scores) is unconstrained.

:class:`ScoringScheme` captures that contract as a strategy object, and
:class:`PaperScoring` provides the instantiation used in the paper's §5
experiments::

    h: S_a(c)  = Σ_s S_a(s)          S_o(c) = Σ_v Σ_t S_o^t(v)
    g: S_q(c)  = S_a(c) · Σ_i S_oi(c)
    f: S_q(z)  = Σ_c S_q(c)            (⊙ = +)

RVAQ's bound arithmetic needs two derived operations: ``combine`` (the ⊙
operator) and ``repeat`` (``f`` applied to a multiset of identical clip
scores — how upper/lower bounds extrapolate unseen clips, Eqs. 13–14).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import reduce
from operator import add
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError


def _add_left_to_right(values: Iterable[float]) -> float:
    """``0.0 + v0 + v1 + ...``, one IEEE addition per element.

    Not the builtin ``sum``: from CPython 3.12 on that compensates float
    addition (Neumaier), so its last bit depends on the interpreter, and no
    array kernel could promise to match it on every version.
    """
    return float(reduce(add, values, 0.0))


class ScoringScheme(ABC):
    """Strategy object bundling the paper's ``f``, ``g`` and ``h``."""

    # -- h: per-predicate clip scores -------------------------------------------

    @abstractmethod
    def object_clip_score(self, track_scores: Iterable[float]) -> float:
        """``h`` for objects: combine all tracked instance scores in a clip
        (Eq. 7)."""

    @abstractmethod
    def action_clip_score(self, shot_scores: Iterable[float]) -> float:
        """``h`` for actions: combine all shot scores in a clip (Eq. 8)."""

    # -- g: clip score -------------------------------------------------------------

    @abstractmethod
    def clip_score(
        self, action_score: float, object_scores: Sequence[float]
    ) -> float:
        """``g``: overall clip score from the per-predicate scores (Eq. 9)."""

    # -- f: sequence score -----------------------------------------------------------

    @property
    @abstractmethod
    def identity(self) -> float:
        """Neutral element of ``⊙`` (the score of an empty sub-sequence)."""

    @abstractmethod
    def combine(self, left: float, right: float) -> float:
        """The ⊙ aggregation operator over sub-sequence scores (Eq. 11)."""

    @abstractmethod
    def repeat(self, clip_score: float, times: int) -> float:
        """``f(s, s, ..., s)`` with ``times`` copies — the extrapolation
        primitive of the RVAQ bounds (Eqs. 13–14)."""

    def aggregate(self, clip_scores: Iterable[float]) -> float:
        """``f``: the score of a sequence from its clip scores (Eq. 10)."""
        total = self.identity
        for score in clip_scores:
            total = self.combine(total, score)
        return total

    # -- vectorised kernels ----------------------------------------------------------
    #
    # The offline hot path (RVAQ's bound refresh, TBClip's access rounds)
    # applies ``g`` and the ⊙/repeat pair to whole NumPy columns at once.
    # The defaults below delegate elementwise to the scalar operations, so
    # any scheme stays correct (and bit-identical to the scalar path)
    # without overriding anything; the built-in schemes override them with
    # true array arithmetic, which is where the speedup comes from.  An
    # override must perform the *same IEEE operations per element* as its
    # scalar counterpart so vectorised and scalar executions agree bitwise.
    # For the additive scheme that fixes the scalars too: a sum is plain
    # left-to-right IEEE addition from 0.0 (``_add_left_to_right``) on every
    # Python version, which is the order ``np.bincount(weights=...)`` and a
    # column-by-column accumulation reproduce.

    def object_clip_scores(
        self, clip_of_observation: np.ndarray, scores: np.ndarray, n_clips: int
    ) -> np.ndarray:
        """``h`` for objects over a whole video: entry ``c`` combines the
        ``scores`` whose ``clip_of_observation`` is ``c`` (non-decreasing:
        observations arrive in frame order), in that order."""
        bounds = np.searchsorted(
            clip_of_observation, np.arange(n_clips + 1)
        ).tolist()
        values = scores.tolist()
        return np.array(
            [self.object_clip_score(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])],
            dtype=np.float64,
        )

    def action_clip_scores(self, shot_scores: np.ndarray) -> np.ndarray:
        """``h`` for actions over a whole video: row ``c`` of the
        ``(clips, shots per clip)`` matrix holds clip ``c``'s shot scores."""
        return np.array(
            [self.action_clip_score(row) for row in shot_scores.tolist()],
            dtype=np.float64,
        )

    def clip_score_block(
        self, action_scores: np.ndarray, object_scores: Sequence[np.ndarray]
    ) -> np.ndarray:
        """``g`` over aligned score columns: element ``i`` combines
        ``action_scores[i]`` with ``[col[i] for col in object_scores]``."""
        return np.fromiter(
            (
                self.clip_score(
                    float(action), [float(col[i]) for col in object_scores]
                )
                for i, action in enumerate(action_scores)
            ),
            dtype=np.float64,
            count=len(action_scores),
        )

    def combine_block(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Elementwise ⊙ over two aligned columns."""
        return np.fromiter(
            (self.combine(float(a), float(b)) for a, b in zip(left, right)),
            dtype=np.float64,
            count=len(left),
        )

    def repeat_block(self, clip_score: float, times: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`repeat` of one score against a count column
        (whole numbers, int64 or float64).  The public hook: like
        :meth:`repeat` it refuses a negative count, whoever calls."""
        if (times < 0).any():
            raise ConfigurationError("repeat times must be >= 0")
        return self._repeat_counted(clip_score, times)

    def _repeat_counted(self, clip_score: float, times: np.ndarray) -> np.ndarray:
        """The kernel behind :meth:`repeat_block`, for ``times >= 0`` — the
        one a scheme overrides with array arithmetic.  RVAQ's bound refresh
        calls it directly, twice a pair: its counts start at the sequence
        lengths and shrink only in ``_WorkingSet.fold``, which refuses to go
        below zero itself."""
        return np.fromiter(
            (self.repeat(clip_score, int(t)) for t in times),
            dtype=np.float64,
            count=len(times),
        )


class PaperScoring(ScoringScheme):
    """The additive/multiplicative instantiation of §5 (see module docs)."""

    @property
    def identity(self) -> float:
        return 0.0

    def object_clip_score(self, track_scores: Iterable[float]) -> float:
        return _add_left_to_right(track_scores)

    def action_clip_score(self, shot_scores: Iterable[float]) -> float:
        return _add_left_to_right(shot_scores)

    def clip_score(
        self, action_score: float, object_scores: Sequence[float]
    ) -> float:
        if action_score < 0 or any(s < 0 for s in object_scores):
            raise ConfigurationError(
                "PaperScoring expects non-negative predicate scores"
            )
        if not object_scores:
            # A pure-action query ranks by the action evidence alone.
            return float(action_score)
        return float(action_score) * _add_left_to_right(object_scores)

    def combine(self, left: float, right: float) -> float:
        return left + right

    def repeat(self, clip_score: float, times: int) -> float:
        if times < 0:
            raise ConfigurationError(f"repeat times must be >= 0; got {times}")
        return clip_score * times

    # vectorised kernels: identical IEEE ops per element as the scalar path

    def object_clip_scores(
        self, clip_of_observation: np.ndarray, scores: np.ndarray, n_clips: int
    ) -> np.ndarray:
        # bincount adds each weight to its bin in input order, from 0.0
        # (and answers in integers when there is nothing to add).
        sums = np.bincount(clip_of_observation, weights=scores, minlength=n_clips)
        return sums.astype(np.float64, copy=False)

    def action_clip_scores(self, shot_scores: np.ndarray) -> np.ndarray:
        # Column by column, not ``sum(axis=1)``: NumPy's pairwise reduction
        # would add each row in another order.
        acc = np.zeros(len(shot_scores), dtype=np.float64)
        for column in shot_scores.T:
            acc += column
        return acc

    def clip_score_block(
        self, action_scores: np.ndarray, object_scores: Sequence[np.ndarray]
    ) -> np.ndarray:
        action_scores = np.asarray(action_scores, dtype=np.float64)
        if (action_scores < 0).any() or any(
            (np.asarray(col) < 0).any() for col in object_scores
        ):
            raise ConfigurationError(
                "PaperScoring expects non-negative predicate scores"
            )
        if not object_scores:
            return action_scores.copy()
        # Left-to-right accumulation, as the scalar path adds.
        acc = np.asarray(object_scores[0], dtype=np.float64)
        for col in object_scores[1:]:
            acc = acc + col
        return action_scores * acc

    def combine_block(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return left + right

    def _repeat_counted(self, clip_score: float, times: np.ndarray) -> np.ndarray:
        return clip_score * times


class MaxScoring(ScoringScheme):
    """An alternative monotone scheme: a sequence scores its best clip.

    Satisfies the same §4.1 contract with ``⊙ = max`` — included to
    demonstrate (and property-test) that RVAQ is scoring-scheme agnostic.
    Sequence length stops mattering; ranking favours peak evidence.
    """

    @property
    def identity(self) -> float:
        return 0.0

    def object_clip_score(self, track_scores: Iterable[float]) -> float:
        return float(max(track_scores, default=0.0))

    def action_clip_score(self, shot_scores: Iterable[float]) -> float:
        return float(max(shot_scores, default=0.0))

    def clip_score(
        self, action_score: float, object_scores: Sequence[float]
    ) -> float:
        if not object_scores:
            return float(action_score)
        return float(action_score) * float(max(object_scores))

    def combine(self, left: float, right: float) -> float:
        return max(left, right)

    def repeat(self, clip_score: float, times: int) -> float:
        if times < 0:
            raise ConfigurationError(f"repeat times must be >= 0; got {times}")
        return clip_score if times > 0 else 0.0

    # vectorised kernels: identical IEEE ops per element as the scalar path

    def object_clip_scores(
        self, clip_of_observation: np.ndarray, scores: np.ndarray, n_clips: int
    ) -> np.ndarray:
        counts = np.bincount(clip_of_observation, minlength=n_clips)
        seen = counts > 0
        out = np.zeros(n_clips, dtype=np.float64)
        # reduceat over the clips that have observations (it would read a
        # neighbour's first score for an empty one); those keep max's 0.0.
        out[seen] = np.maximum.reduceat(scores, (np.cumsum(counts) - counts)[seen])
        return out

    def action_clip_scores(self, shot_scores: np.ndarray) -> np.ndarray:
        return shot_scores.max(axis=1)

    def clip_score_block(
        self, action_scores: np.ndarray, object_scores: Sequence[np.ndarray]
    ) -> np.ndarray:
        action_scores = np.asarray(action_scores, dtype=np.float64)
        if not object_scores:
            return action_scores.copy()
        acc = np.asarray(object_scores[0], dtype=np.float64)
        for col in object_scores[1:]:
            acc = np.maximum(acc, col)
        return action_scores * acc

    def combine_block(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return np.maximum(left, right)

    def _repeat_counted(self, clip_score: float, times: np.ndarray) -> np.ndarray:
        return np.where(times > 0, clip_score, 0.0)
