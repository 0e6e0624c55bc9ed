"""The paper's evaluation metrics (§5.1): sequence and frame-level matching."""

from repro.eval.metrics import MatchReport, match_sequences

__all__ = [
    "MatchReport",
    "match_sequences",
]
