"""Small argument validators shared across the package, and the one reader
and the one writer of persisted state.

Each helper raises the package's own exception types with messages that name
the offending parameter, so configuration mistakes fail fast and readably.

Every checkpoint, bundle and manifest is written by :func:`write_record` and
comes in through :func:`read_record`.  Its shape is declared once, as a
dataclass next to the code that writes it, built from a closed set of leaves:
``bool``, ``int``, ``float``, ``str``, ``X | None``, ``Literal[...]``,
``list[T]``, ``dict[str, T]``, fixed-length ``tuple[A, B]`` pairs,
``tuple[T, ...]``, nested records (a dataclass or a named tuple),
:class:`~repro.utils.intervals.IntervalSet` and :class:`Nested`.
A range is an ``Annotated`` leaf carrying a :class:`Check`.  ``bool`` is
never an ``int``, and a ``float`` takes a JSON int but not a bool, a NaN or
an infinity.  A record that declares a one-value ``Literal`` ``version`` or
``format`` leaf is versioned: the reader tests that leaf before anything
else.  The reader turns a payload into the declared record or raises the
caller's taxonomy error naming the JSON path, e.g.
``fleet checkpoint.sessions.a.assembler.closed[0][1]``.
"""

from __future__ import annotations

import sys
import types
from dataclasses import fields
from functools import cache
from typing import Annotated, Any, Callable, Dict, Generic, Literal, NamedTuple, Sequence, TypeVar, Union
from typing import get_args, get_origin, get_type_hints

import numpy as np

from repro.errors import ConfigurationError, QueryError, ReproError, ScanStatisticsError
from repro.utils.intervals import IntervalSet
from repro._typing import StateDict

R = TypeVar("R")


def is_positive_int(value: Any) -> bool:
    """Whether ``value`` is a whole number above zero: an int, a NumPy
    integer or an integral float, but never a bool, a NaN or an infinity."""
    try:
        return type(value) is not bool and value > 0 and int(value) == value
    except (TypeError, ValueError, ArithmeticError):
        return False


def require_probability(value: float, name: str, *, open_interval: bool = False) -> float:
    """Validate that ``value`` is a probability.

    With ``open_interval`` the endpoints 0 and 1 are excluded, which is what
    the scan-statistics formulas need (they divide by both ``p`` and ``q``).
    """
    value = float(value)
    if open_interval:
        if not 0.0 < value < 1.0:
            raise ScanStatisticsError(f"{name} must be in (0, 1); got {value}")
    elif not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1]; got {value}")
    return value


def require_positive_int(value: int, name: str) -> int:
    if not is_positive_int(value):
        raise ConfigurationError(f"{name} must be a positive integer; got {value!r}")
    return int(value)


def require_distinct_ids(
    ids: Sequence[str], error: type[ReproError] = ConfigurationError
) -> None:
    """Refuse a batch that names one video id twice, naming the ids."""
    dupes = sorted({i for i in ids if ids.count(i) > 1})
    if dupes:
        raise error(f"duplicate video ids: {dupes}")


def require_k(k: int) -> int:
    """The one check of a ranked query's K, made by every door that takes
    one: a whole number above zero — never a bool, ``2.5`` or ``"3"``."""
    if not is_positive_int(k):
        raise QueryError(f"k must be positive; got {k!r}")
    return int(k)


def require_non_negative(value: float, name: str) -> float:
    value = float(value)
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative; got {value}")
    return value


def require_positive(value: float, name: str) -> float:
    value = float(value)
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive; got {value}")
    return value


#: A range on a leaf, as in ``Annotated[int, NON_NEGATIVE]``.
Check = NamedTuple("Check", [("test", Callable[[Any], bool]), ("says", str)])


NON_NEGATIVE = Check(lambda value: value >= 0, ">= 0")
Count = Annotated[int, NON_NEGATIVE]
Positive = Annotated[int, Check(is_positive_int, "> 0")]
#: A non-negative float: seconds, milliseconds, a kernel weight.
Amount = Annotated[float, NON_NEGATIVE]
FileName = Annotated[str, Check(
    lambda name: name not in ("", ".", "..") and not any(c in name for c in "/\\\0"),
    "naming a file inside its directory",
)]


class Nested(Dict[str, Any], Generic[R]):
    """A JSON object its own door reads later, declared ``Nested[Record]``:
    a checkpoint with its own version, or one whose record the loader
    picks.  It keeps its path, for the door's refusals."""

    path = ""


class _Refused(Exception):
    """``(at, problem)``: a forbidden value at a linked path ``(parent, key)``."""


def _where(at: Any) -> str:
    keys = []
    while type(at) is tuple:
        at, key = at
        keys.append(f"[{key}]" if type(key) is int else f".{key}")
    return str(at) + "".join(reversed(keys))


def read_record(
    record: type[R], payload: Any, where: str = "", error: type[ReproError] = ConfigurationError
) -> R:
    """``payload`` as a ``record``, or ``error`` naming the JSON path below
    ``where`` (a :class:`Nested` payload brings its own).  A ``record``
    passes through, so a door can take what an outer door read."""
    if isinstance(payload, Nested):
        where = payload.path
    try:
        return _reader(record)(payload, where)  # type: ignore[no-any-return]
    except _Refused as refused:
        raise error(f"{_where(refused.args[0])} {refused.args[1]}") from None


def write_record(record: Any) -> StateDict:
    """``record`` as the JSON object :func:`read_record` reads back as it:
    the reader's twin, compiled per record the same way.  A JSON object
    where a record or a :class:`Nested` part is declared is what an inner
    writer wrote, and goes in as it is."""
    write = _writer(type(record))
    assert write is not None, f"{type(record).__name__} is a scalar, not a record"
    return write(record)  # type: ignore[no-any-return]


def version_of(record: Any) -> tuple[str, Any] | None:
    """``(leaf, value)`` of a versioned record — one declaring its
    ``version`` or ``format`` as a one-value ``Literal`` — else ``None``."""
    if not (hasattr(record, "__dataclass_fields__") or hasattr(record, "_fields")):
        return None
    hints = _hints(record)
    for name in ("version", "format"):
        if get_origin(hints.get(name)) is Literal and len(get_args(hints[name])) == 1:
            return name, get_args(hints[name])[0]
    return None


class _Leaf(NamedTuple):
    """A scalar leaf: its test, what it must be, a cast (a float takes an int)."""

    test: Callable[[Any], bool]
    says: str
    cast: Callable[[Any], Any] | None = None

    def __call__(self, value: Any, at: Any) -> Any:
        if not self.test(value):
            raise _Refused(at, f"must be {self.says}; got {value!r}")
        return value if self.cast is None else self.cast(value)


_READERS: dict[Any, Callable[[Any, Any], Any]] = {
    bool: _Leaf(lambda v: type(v) is bool, "a bool"),
    int: _Leaf(lambda v: type(v) is int, "an int"),
    # a NaN fails the comparison; an int too big for a float is refused
    float: _Leaf(
        lambda v: type(v) in (float, int) and abs(v) <= sys.float_info.max,
        "a finite number",
        float,
    ),
    str: _Leaf(lambda v: type(v) is str, "a string"),
}


def _reader(kind: Any) -> Callable[[Any, Any], Any]:
    if kind not in _READERS:
        _READERS[kind] = _compile(kind)
    return _READERS[kind]


def _compile(kind: Any) -> Callable[[Any, Any], Any]:
    origin, args = get_origin(kind), get_args(kind)
    if kind is IntervalSet:
        return _read_spans
    if origin is Annotated:
        base = _reader(args[0])
        assert isinstance(base, _Leaf)
        base_test, test, exact = base.test, args[1].test, args[0]
        if exact in (bool, int, str):  # one call fewer on the hot path
            return _Leaf(lambda v: type(v) is exact and test(v), f"{base.says} {args[1].says}")
        return _Leaf(lambda v: base_test(v) and test(v), f"{base.says} {args[1].says}", base.cast)
    if origin is Literal:
        kinds = {type(option) for option in args}  # ``1 in (True,)``, but 1 is no bool
        return _Leaf(lambda v: v in args and type(v) in kinds, " or ".join(map(repr, args)))
    if origin in (Union, types.UnionType) and args[1:] == (type(None),):
        inner = _reader(args[0])
        if isinstance(inner, _Leaf) and inner.cast is None:
            inner_test = inner.test
            return _Leaf(lambda v: v is None or inner_test(v), f"{inner.says} or null")
        return lambda value, at: None if value is None else inner(value, at)
    if origin in (list, dict):
        return _container(origin, _reader(args[-1]))
    if origin is tuple and args[-1] is Ellipsis:
        items = _container(list, _reader(args[0]))
        return lambda value, at: tuple(items(value, at))
    if origin is tuple:
        return _pair(*map(_reader, args))
    if kind is Nested or origin is Nested:
        return _read_nested
    if hasattr(kind, "__dataclass_fields__") or hasattr(kind, "_fields"):
        return _record(kind)
    raise ConfigurationError(f"{kind!r} is not a declared leaf")


def _container(shape: type, item: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """A ``list[T]`` or a ``dict[str, T]``: uncast scalar items are tested
    in one pass, and only a refusal walks them one by one for the path."""
    noun = "a list" if shape is list else "a JSON object"
    fast = item.test if isinstance(item, _Leaf) and item.cast is None else None

    def read(value: Any, at: Any) -> Any:
        if type(value) is not shape:
            raise _Refused(at, f"must be {noun}; got {value!r}")
        if fast is not None and all(map(fast, value.values() if shape is dict else value)):
            return shape(value)
        if shape is dict:
            return {key: item(v, (at, key)) for key, v in value.items()}
        return [item(v, (at, i)) for i, v in enumerate(value)]

    return read


def _pair(first: Any, second: Any) -> Callable[[Any, Any], Any]:
    """A fixed-length pair; two uncast scalar leaves are tested in place."""
    leaves = all(isinstance(r, _Leaf) and r.cast is None for r in (first, second))

    def read(value: Any, at: Any) -> Any:
        if type(value) not in (list, tuple) or len(value) != 2:
            raise _Refused(at, f"must be a list of 2; got {value!r}")
        a, b = value
        if leaves and first.test(a) and second.test(b):
            return a, b
        return first(a, (at, 0)), second(b, (at, 1))

    return read


def _read_spans(value: Any, at: Any) -> IntervalSet:
    """Exact-int pairs (bools refused) with ``0 <= start <= end`` within
    int64, checked in one pass.  Canonical pairs (sorted, gaps of 2 or more)
    are the set's columns as they stand; any others are sorted and merged."""
    starts: list[int] = []
    ends: list[int] = []
    canonical, last = True, -2
    for pair in value if type(value) is list else [None]:
        start, end = pair if type(pair) in (list, tuple) and len(pair) == 2 else (None, None)
        if not (type(start) is type(end) is int and 0 <= start <= end < 1 << 63):
            raise _Refused(at, f"must be [start, end] pairs, 0 <= start <= end; got {value!r}")
        canonical = canonical and last + 2 <= start
        starts.append(start)
        ends.append(end)
        last = end
    return IntervalSet.from_columns(*np.array([starts, ends], np.int64), canonical=canonical)


def _read_nested(value: Any, at: Any) -> Nested[Any]:
    if not isinstance(value, dict):
        raise _Refused(at, f"must be a JSON object; got {value!r}")
    nested: Nested[Any] = Nested(value)
    nested.path = _where(at)
    return nested


@cache
def _hints(record: type) -> dict[str, Any]:
    """A record's field declarations, evaluated once for reader and writer."""
    return get_type_hints(record, include_extras=True)


def _record(record: type) -> Callable[[Any, Any], Any]:
    """A record: its scalar leaves are tested in place, the rest read."""
    hints = _hints(record)
    names = getattr(record, "_fields", None) or [f.name for f in fields(record)]
    readers = [(name, _reader(hints[name])) for name in names]
    leaves = [(name, *r) for name, r in readers if isinstance(r, _Leaf)]
    nodes = [(name, r) for name, r in readers if not isinstance(r, _Leaf)]
    keys = set(names)
    # a versioned record's tag is tested first: no other key means anything
    # under a version this build does not read
    version = version_of(record)
    tag = version[0] if version else ""
    tag_leaf = _reader(hints[tag]) if version else None
    # a dataclass without ``__post_init__`` is filled in: ``__init__`` only sets fields
    direct = not hasattr(record, "_fields") and not hasattr(record, "__post_init__")

    def read(value: Any, at: Any) -> Any:
        if type(value) is not dict:
            if isinstance(value, record):
                return value
            if not isinstance(value, dict):
                raise _Refused(at, f"must be a JSON object; got {value!r}")
        if tag_leaf is not None:
            tag_leaf(value.get(tag), (at, tag))
        if value.keys() != keys:
            raise _Refused(at, f"must hold exactly the keys {list(names)}; got {list(value)}")
        read = dict(value)
        for name, node in nodes:
            read[name] = node(value[name], (at, name))
        for name, test, says, cast in leaves:
            if not test(value[name]):
                raise _Refused((at, name), f"must be {says}; got {value[name]!r}")
            if cast is not None:
                read[name] = cast(value[name])
        if direct:
            made = object.__new__(record)
            object.__setattr__(made, "__dict__", read)
            return made
        return record(**read)

    return read


#: A writer that is ``None`` writes its value as it is: JSON takes a
#: scalar, and a container of scalars is copied by one C-level call.
Writer = Union[Callable[[Any], Any], None]

_WRITERS: dict[Any, Writer] = {}


def _writer(kind: Any) -> Writer:
    if kind not in _WRITERS:
        _WRITERS[kind] = _compile_writer(kind)
    return _WRITERS[kind]


def _compile_writer(kind: Any) -> Writer:
    """Containers of scalars are copied by one C-level call."""
    origin, args = get_origin(kind), get_args(kind)
    if kind is IntervalSet:
        return IntervalSet.as_tuples
    if kind in (bool, int, float, str) or origin is Literal:
        return None
    if origin is Annotated:
        return _writer(args[0])
    if origin in (Union, types.UnionType) and args[1:] == (type(None),):
        inner = _writer(args[0])
        return None if inner is None else lambda value: None if value is None else inner(value)
    if origin is list or origin is tuple and args[-1] is Ellipsis:
        item = _writer(args[0])
        return list if item is None else lambda value: [item(v) for v in value]
    if origin is dict:
        entry = _writer(args[1])
        return dict if entry is None else lambda value: {k: entry(v) for k, v in value.items()}
    if origin is tuple and all(_writer(arg) is None for arg in args):  # a pair of scalars
        return list
    if kind is Nested or origin is Nested:
        return lambda value: dict(value) if isinstance(value, dict) else write_record(value)
    if hasattr(kind, "__dataclass_fields__") or hasattr(kind, "_fields"):
        return _record_writer(kind)
    raise ConfigurationError(f"{kind!r} is not a declared leaf")


def _record_writer(record: type) -> Callable[[Any], Any]:
    """A record as a JSON object, its fields in declaration order."""
    hints = _hints(record)
    names = getattr(record, "_fields", None) or [f.name for f in fields(record)]
    writers = [(name, _writer(hints[name])) for name in names]

    def write(value: Any) -> Any:
        if isinstance(value, dict):
            return value
        return {
            name: getattr(value, name) if w is None else w(getattr(value, name))
            for name, w in writers
        }

    return write
