"""The paper's evaluation metrics (§5.1): sequence and frame-level F1."""

from repro.eval.metrics import (
    MatchReport,
    frame_level_f1,
    match_sequences,
    sequence_f1,
)

__all__ = [
    "MatchReport",
    "match_sequences",
    "sequence_f1",
    "frame_level_f1",
]
