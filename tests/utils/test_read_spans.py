"""The span-list reader against the NumPy-only reader it replaced
(``tests/reference/spans.py``): every list is checked in one Python pass,
a canonical one is adopted as it stands, and whatever the list, the result
is the same set or the same refusal."""

from __future__ import annotations

from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.validation import _read_spans, _Refused
from tests.reference.spans import read_spans as reference

INT64_MAX = (1 << 63) - 1


@st.composite
def canonical(draw: Any) -> list[list[int]]:
    """Sorted pairs, ``0 <= start <= end``, parted by gaps of at least 2."""
    pairs, last = [], draw(st.sampled_from([-2, INT64_MAX - 40]))
    for gap, length in draw(st.lists(st.tuples(st.integers(2, 9), st.integers(0, 6)), max_size=12)):
        start = last + gap
        if start + length > INT64_MAX:
            break
        pairs.append([start, start + length])
        last = start + length
    return pairs


#: Values that test each bound: negatives, bools, the int64 edge and past it.
VALUES = st.one_of(
    st.integers(-3, 60), st.booleans(), st.integers(INT64_MAX - 2, INT64_MAX + 3),
    st.integers(1 << 64, (1 << 64) + 2), st.just(1.0),
)
PAIR = st.one_of(
    st.lists(VALUES, min_size=2, max_size=2), st.tuples(VALUES, VALUES),
    st.lists(VALUES, max_size=3), st.just("ab"), st.just(None),
)


@st.composite
def nearly_canonical(draw: Any) -> list[Any]:
    """A canonical list with one pair swapped, overlapped, made adjacent,
    negated or replaced by an arbitrary value."""
    pairs: list[Any] = draw(canonical())
    if not pairs:
        return [draw(PAIR)]
    i = draw(st.integers(0, len(pairs) - 1))
    start, end = pairs[i]
    how = draw(st.sampled_from(["swap", "overlap", "adjacent", "negate", "reverse", "bool", "any"]))
    if how == "swap" and len(pairs) > 1:
        pairs[0], pairs[-1] = pairs[-1], pairs[0]
    elif how in ("overlap", "adjacent") and i:
        pairs[i] = [pairs[i - 1][1] + (0 if how == "overlap" else 1), end]
    elif how == "negate":
        pairs[i] = [-start - 1, end]
    elif how == "reverse" and start != end:
        pairs[i] = [end, start]
    elif how == "bool":
        pairs[i] = [start, True] if draw(st.booleans()) else [False, end]
    else:
        pairs[i] = draw(PAIR)
    return pairs


def _outcome(read: Any, value: Any) -> Any:
    try:
        spans = read(value, "spans")
    except _Refused as refused:
        return "refused", refused.args
    starts, ends = spans.columns()
    assert starts.dtype == ends.dtype == np.int64
    return spans.as_tuples(), starts.tolist(), ends.tolist()


@settings(max_examples=300, deadline=None)
@given(st.one_of(canonical(), nearly_canonical(), st.lists(PAIR, max_size=6)))
def test_the_reader_agrees_with_the_numpy_only_reader(value):
    assert _outcome(_read_spans, value) == _outcome(reference, value)


@settings(max_examples=100, deadline=None)
@given(canonical())
def test_a_canonical_list_is_read_as_it_stands(value):
    spans = _read_spans(value, "spans")
    assert spans.as_tuples() == [tuple(pair) for pair in value]


def test_each_kind_of_bad_list_keeps_its_refusal():
    for value in ([[-1, 2]], [[True, 5]], [[0, 2], [4, False]], [[3, 1]], [[0, 1 << 63]],
                  [[0, 2], [4]], [[0.5, 1]], {}, "x", None, 7):
        assert _outcome(_read_spans, value) == _outcome(reference, value)
        assert _outcome(_read_spans, value)[0] == "refused"
    for value in ([[4, 6], [0, 2]], [[0, 3], [2, 5]], [[0, 2], [3, 5]], []):
        assert _outcome(_read_spans, value) == _outcome(reference, value)
