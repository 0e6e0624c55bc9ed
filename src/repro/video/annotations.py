"""Ground-truth annotation import/export.

The paper's evaluation relies on manually labelled temporal boundaries
(§5.1).  This module round-trips :class:`GroundTruth` annotations through a
plain JSON document so labelled datasets can be stored, exchanged and
re-used independently of the scene generator that produced them::

    {"n_frames": 7500,
     "objects":  {"faucet": [[100, 400], [600, 700]]},
     "actions":  {"washing dishes": [[150, 450]]},
     "instances": {"faucet": [[[100, 400]], [[250, 300]]]},
     "outage_frames": [[1000, 1100]]}
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import GroundTruthError
from repro.utils.validation import read_record, write_record
from repro.video.ground_truth import GroundTruth
from repro._typing import StateDict


def ground_truth_to_dict(truth: GroundTruth) -> StateDict:
    """A JSON-serialisable representation of the annotations."""
    return write_record(truth)


def ground_truth_from_dict(payload: StateDict) -> GroundTruth:
    """Rebuild annotations from :func:`ground_truth_to_dict` output, read as
    :class:`GroundTruth` declares it."""
    return read_record(GroundTruth, payload, "annotation document", GroundTruthError)


def save_annotations(truth: GroundTruth, path: str | Path) -> Path:
    """Write annotations as JSON; returns the written path."""
    target = Path(path)
    target.write_text(json.dumps(ground_truth_to_dict(truth), indent=1))
    return target


def load_annotations(path: str | Path) -> GroundTruth:
    """Read annotations written by :func:`save_annotations`."""
    source = Path(path)
    if not source.exists():
        raise GroundTruthError(f"no annotation file at {source}")
    return ground_truth_from_dict(json.loads(source.read_text()))
