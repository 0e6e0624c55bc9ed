"""The span-list reader ``utils.validation._read_spans`` as it ran before
it read every list in one Python pass — every list through NumPy — kept as
the oracle the reader is compared against."""

from __future__ import annotations

from itertools import chain
from typing import Any

import numpy as np

from repro.errors import IntervalError
from repro.utils.intervals import IntervalSet
from repro.utils.validation import _Refused


def read_spans(value: Any, at: Any) -> IntervalSet:
    """Pairs with ``0 <= start <= end``, converted by NumPy in one go; a bool
    inside would convert as 0 or 1, so one C-level type scan refuses it.  The
    set sorts and merges the pairs, so its first start is its least."""
    try:
        pairs = np.array(value) if type(value) is list else None
    except ValueError:  # ragged
        pairs = None
    if pairs is not None and value and (
        pairs.dtype.kind != "i" or pairs.shape != (len(value), 2)
        or bool in set(map(type, chain.from_iterable(value)))
    ):
        pairs = None
    try:
        spans = None if pairs is None else IntervalSet.from_columns(*pairs.reshape(-1, 2).T.copy())
    except IntervalError:  # an end before its start
        spans = None
    if spans is None or len(pairs) and spans.columns()[0][0] < 0:
        raise _Refused(at, f"must be [start, end] pairs, 0 <= start <= end; got {value!r}")
    return spans
