"""A fuzzer generated from the persisted-shape declarations.

:func:`cases` walks a payload together with the record that declares it
(:func:`repro.utils.validation.read_record`'s leaves) and yields, at every
node, each mutation the declaration forbids:

* a record: every key dropped, one key added, the record swapped for a
  value of another type;
* a list or a ``dict[str, T]``: swapped for another type, an item the item
  declaration forbids appended (or put in), and the first items walked;
* a fixed-length pair: swapped, one short, one long;
* a scalar leaf: ``"x"``, ``null``, a bool, ``-1``, ``1.5``, ``[]``,
  ``{}``, NaN, the infinities, ``10**12``, ``10**400`` and the value as a
  whole float, kept where the declaration (type, range, ``Literal``)
  refuses them — so a bool where an int goes, a negative where
  ``>= 0`` is declared;
* an :class:`~repro.utils.intervals.IntervalSet` leaf: the malformed pair
  lists one NumPy conversion has to refuse, a bool inside included.

:class:`~repro.utils.validation.Nested` parts are walked with the record
their door reads: of several, the one the unmutated payload reads as.
Each case carries the path a refusal has to name, in the reader's
``root.key[0]`` form.  The cases do not load anything: the tests load them
through a door and require a :mod:`repro.errors` error naming the path.
"""

from __future__ import annotations

import json
import math
import sys
import types
from dataclasses import fields
from typing import Annotated, Any, Iterator, Literal, NamedTuple, Union
from typing import get_args, get_origin, get_type_hints

from repro.errors import ReproError
from repro.utils.intervals import IntervalSet
from repro.utils.validation import Check, Nested, read_record

#: Items walked per list or object (the fuzzer samples, the reader reads all).
SAMPLE = 2

SCALARS = (
    "x", "", "../x", None, True, False, -1, 1.5, [], {}, math.nan, math.inf,
    -math.inf, 10**12, 10**400,
)
BAD_SPANS = (
    [[0, 2], [4]], [[0]], [[0, 1, 2, 3]], [0, 1], [[[0, 1]]], [["x", 1]], [[]],
    [[0.5, 1]], [[-1, 2]], [[True, 5]], [[0, 2], [4, False]], {}, "x", None, 7,
    [[3, 1]],
)


class Case(NamedTuple):
    path: tuple[Any, ...]
    what: str
    mutate: Any  # callable(payload) applying the mutation in place


def where(root: str, path: tuple[Any, ...]) -> str:
    """A path in the form the reader names it."""
    return root + "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)


def apply(payload: Any, case: Case) -> Any:
    """A copy of the JSON ``payload`` with ``case`` applied."""
    mutated = json.loads(json.dumps(payload))
    replaced = case.mutate(mutated)
    return mutated if replaced is None else replaced


def _setter(path: tuple[Any, ...], value: Any) -> Any:
    """Set the node at ``path``; at the root, :func:`apply` returns ``value``."""
    def mutate(payload: Any) -> Any:
        if not path:
            return json.loads(json.dumps(value))
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = json.loads(json.dumps(value))
        return payload

    return mutate


def _at(path: tuple[Any, ...], change: Any) -> Any:
    def mutate(payload: Any) -> None:
        node = payload
        for key in path:
            node = node[key]
        change(node)

    return mutate


def _unwrap(kind: Any) -> tuple[Any, list[Check], bool]:
    """The kind under ``Optional`` and ``Annotated``, its checks, and
    whether ``null`` is allowed."""
    checks: list[Check] = []
    nullable = False
    while True:
        origin, args = get_origin(kind), get_args(kind)
        if origin in (Union, types.UnionType) and args[1:] == (type(None),):
            kind, nullable = args[0], True
        elif origin is Annotated and isinstance(args[1], Check):
            kind, checks = args[0], checks + [args[1]]
        else:
            return kind, checks, nullable


def allowed(kind: Any, value: Any) -> bool:
    """Whether the declaration lets a scalar ``value`` through, decided
    here from the declaration alone (not by asking the reader)."""
    kind, checks, nullable = _unwrap(kind)
    if value is None:
        return nullable
    origin, args = get_origin(kind), get_args(kind)
    if origin is Literal:
        ok = any(type(value) is type(o) and value == o for o in args)
    elif kind is float:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    elif kind in (bool, int, str):
        ok = type(value) is kind
    else:
        ok = False  # a container, a record or a span list: not a scalar
    return ok and all(check.test(value) for check in checks)


def _is_scalar(kind: Any) -> bool:
    kind = _unwrap(kind)[0]
    return kind in (bool, int, float, str) or get_origin(kind) is Literal


def _fields(record: Any) -> list[str]:
    return list(getattr(record, "_fields", None) or [f.name for f in fields(record)])


def _pick(kind: Any, value: Any) -> Any:
    """The record a :class:`Nested` part holds: of a union, the one the
    value reads as."""
    (inner,) = get_args(kind)
    options = get_args(inner) if get_origin(inner) in (Union, types.UnionType) else (inner,)
    for option in options:
        try:
            read_record(option, value)
        except ReproError:
            continue
        return option
    keys = set(value) if isinstance(value, dict) else set()
    return next((o for o in options if set(_fields(o)) == keys), None)


def _swaps(kind: Any, path: tuple[Any, ...]) -> Iterator[Case]:
    """A container or a record swapped for what it is not — the payload's
    root too, since a door takes whatever JSON it is handed."""
    bare, _, nullable = _unwrap(kind)
    origin = get_origin(bare)
    if origin in (list, tuple) or bare is IntervalSet:
        empty: Any = []
    else:
        empty = {} if origin is dict else None
    for bad in SCALARS:
        if bad == empty and type(bad) is type(empty) or bad is None and nullable:
            continue  # an empty container of the declared kind, or an allowed null
        yield Case(path, f"swap for {bad!r}", _setter(path, bad))


def cases(kind: Any, value: Any, path: tuple[Any, ...] = ()) -> Iterator[Case]:
    """Every mutation the declaration ``kind`` forbids in ``value``."""
    bare, _, nullable = _unwrap(kind)
    if value is None and nullable and not _is_scalar(kind):
        yield from _swaps(kind, path)
        return
    if _is_scalar(kind):
        candidates = list(SCALARS)
        if type(value) is int and type(value) is not bool:
            candidates.append(float(value))
        for bad in candidates:
            if not allowed(kind, bad):
                yield Case(path, f"leaf {bad!r}", _setter(path, bad))
        return
    origin, args = get_origin(bare), get_args(bare)
    if bare is IntervalSet:
        for bad in BAD_SPANS:
            yield Case(path, f"pairs {bad!r}", _setter(path, bad))
        return
    if not isinstance(value, (dict, list)):
        return  # the writer wrote something the declaration does not walk
    if bare is Nested or origin is Nested:
        record = _pick(bare, value)
        if record is not None:
            yield from _record_cases(record, value, path, kind=kind)
        return
    if origin in (list, dict) or (origin is tuple and args[-1] is Ellipsis):
        item = args[-1] if origin is dict else args[0]
        yield from _swaps(kind, path)
        filler = _forbidden(item)
        if origin is dict:
            put = _at(path, lambda n: n.__setitem__("unexpected", filler))
            yield Case(path + ("unexpected",), "bad entry", put)
            entries = list(value.items())[:SAMPLE]
        else:
            yield Case(path + (len(value),), "bad item", _at(path, lambda n: n.append(filler)))
            entries = list(enumerate(value))[:SAMPLE]
        for key, entry in entries:
            yield from cases(item, entry, path + (key,))
        return
    if origin is tuple:
        yield from _swaps(kind, path)
        yield Case(path, "one short", _at(path, lambda n: n.pop()))
        yield Case(path, "one long", _at(path, lambda n: n.append(0)))
        for index, (element, entry) in enumerate(zip(args, value)):
            yield from cases(element, entry, path + (index,))
        return
    yield from _record_cases(bare, value, path, kind=kind)


def _record_cases(record: Any, value: Any, path: tuple[Any, ...], kind: Any) -> Iterator[Case]:
    if not isinstance(value, dict):
        return
    yield from _swaps(kind, path)
    if path:
        yield Case(path, "swap for {}", _setter(path, {}))
    hints = get_type_hints(record, include_extras=True)
    for name in _fields(record):
        if name not in value:
            continue  # a shape this declaration does not describe
        yield Case(path, f"drop {name}", _at(path, lambda n, k=name: n.pop(k)))
    yield Case(path, "add a key", _at(path, lambda n: n.__setitem__("unexpected", 1)))
    for name in _fields(record):
        if name in value:
            yield from cases(hints[name], value[name], path + (name,))


def nested_parts(kind: Any, value: Any) -> Iterator[tuple[Any, Any]]:
    """Each :class:`Nested` part of a payload with the record its door
    reads — what a check that every part reads has to read next."""
    bare = _unwrap(kind)[0]
    origin, args = get_origin(bare), get_args(bare)
    if value is None or _is_scalar(kind) or bare is IntervalSet:
        return
    if bare is Nested or origin is Nested:
        yield _pick(bare, value), value
    elif origin is dict:
        for entry in value.values():
            yield from nested_parts(args[1], entry)
    elif origin is tuple and args[-1] is not Ellipsis:
        for item, entry in zip(args, value):
            yield from nested_parts(item, entry)
    elif origin in (list, tuple):
        for entry in value:
            yield from nested_parts(args[0], entry)
    else:
        hints = get_type_hints(bare, include_extras=True)
        for name in _fields(bare):
            yield from nested_parts(hints[name], value[name])


def read_all(record: Any, payload: Any) -> Any:
    """``payload`` read as ``record``, and every nested part as its own."""
    read = read_record(record, payload)
    for part, value in nested_parts(record, payload):
        assert part is not None, f"no declared record reads {value!r}"
        read_all(part, value)
    return read


def _forbidden(kind: Any) -> Any:
    """A value the item declaration ``kind`` refuses."""
    if _is_scalar(kind):
        return next(bad for bad in SCALARS if not allowed(kind, bad))
    return "x"
