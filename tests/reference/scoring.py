"""The scalar ``h`` and a second scoring scheme — the oracles the
vectorised kernels of :mod:`repro.core.scoring` are compared against.

:class:`ScalarPaperScoring` is :class:`~repro.core.scoring.PaperScoring`
with its per-clip ``h`` (Eqs. 7–8) as scalar methods.  :class:`MaxScoring`
satisfies the same §4.1 contract with ``⊙ = max``: it shows (and
property-tests) that RVAQ is scoring-scheme agnostic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.scoring import PaperScoring, ScoringScheme, _add_left_to_right
from repro.errors import ConfigurationError


class ScalarPaperScoring(PaperScoring):
    """The additive scheme with the scalar ``h``."""

    def object_clip_score(self, track_scores: Iterable[float]) -> float:
        return _add_left_to_right(track_scores)

    def action_clip_score(self, shot_scores: Iterable[float]) -> float:
        return _add_left_to_right(shot_scores)


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
