"""The version lock over the persisted-shape declarations.

A versioned record (one declaring its ``version`` or ``format`` as a
one-value ``Literal``, :func:`repro.utils.validation.version_of`) is
rendered by walking its declaration, never from ``repr()`` of a typing
object, so every Python reads the same text: one line per JSON path —
``optimizer.fired``, ``pending.outcomes[].label``, ``held{}[0]`` — saying
what the reader takes there.  Nested records are expanded; a
:class:`~repro.utils.validation.Nested` part with a version of its own is
its door's business and is recorded by name and version only.

:func:`problems` compares the live rendering with the committed lock
(``persisted_shapes.lock.json`` beside this module): a shape that moved
without its version is named path by path, and a moved version (the
record's own, or a nested door's) prints the entry to commit.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import types
from pathlib import Path
from typing import Any, Iterator, Literal, Union, get_args, get_origin, get_type_hints

import repro
from repro.utils.intervals import IntervalSet
from repro.utils.validation import Nested, version_of
from tests.persisted_fuzz import _fields, _unwrap

LOCK = Path(__file__).with_name("persisted_shapes.lock.json")


def versioned_records() -> dict[str, Any]:
    """Every versioned record declared in ``repro``, by qualified name."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        for value in vars(importlib.import_module(info.name)).values():
            if isinstance(value, type) and value.__module__ == info.name and version_of(value):
                found[f"{info.name}.{value.__qualname__}"] = value
    return dict(sorted(found.items()))


def entry(record: Any) -> dict[str, Any]:
    """A record's lock entry: its version and its shape, path by path."""
    return {"version": version_of(record)[1], "shape": dict(shape(record))}


def live() -> dict[str, Any]:
    return {name: entry(record) for name, record in versioned_records().items()}


def committed() -> dict[str, Any]:
    return json.loads(LOCK.read_text(encoding="utf-8"))


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def shape(kind: Any, path: str = "") -> Iterator[tuple[str, str]]:
    """``(path, what the reader takes there)`` for every node of ``kind``."""
    bare, checks, nullable = _unwrap(kind)
    tail = "".join(f" {check.says}" for check in checks) + (" | null" if nullable else "")
    origin, args = get_origin(bare), get_args(bare)
    if origin is Literal:
        yield path, " | ".join(map(repr, args)) + tail
    elif bare in (bool, int, float, str):
        yield path, bare.__name__ + tail
    elif bare is IntervalSet:
        yield path, "[start, end] pairs" + tail
    elif bare is Nested or origin is Nested:
        (inner,) = args
        options = get_args(inner) if get_origin(inner) in (Union, types.UnionType) else (inner,)
        yield path, "nested" + tail
        for option in options:
            at = f"{path}<{option.__name__}>" if len(options) > 1 else path
            version = version_of(option)
            if version:  # its path ends in ``:door``: that version may move on its own
                yield f"{at}:door", f"read by its own door: {option.__name__} {version[0]} {version[1]!r}"
            else:
                yield from shape(option, at)
    elif origin in (list, tuple) and args[-1] is Ellipsis or origin is list:
        yield path, "list" + tail
        yield from shape(args[0], path + "[]")
    elif origin is dict:
        yield path, "object" + tail
        yield from shape(args[1], path + "{}")
    elif origin is tuple:
        yield path, f"list of {len(args)}" + tail
        for index, item in enumerate(args):
            yield from shape(item, f"{path}[{index}]")
    else:
        if path:
            yield path, "object" + tail
        hints = get_type_hints(bare, include_extras=True)
        for name in _fields(bare):
            yield from shape(hints[name], _join(path, name))


def problems(now: dict[str, Any], then: dict[str, Any]) -> list[str]:
    """What stops ``now`` (live) from matching ``then`` (the lock)."""
    found = []
    for name in sorted(set(now) | set(then)):
        mine, locked = now.get(name), then.get(name)
        commit = f"; commit this entry:\n{json.dumps({name: mine}, indent=1)}"
        if locked is None:
            found.append(f"{name} is versioned but not in the lock{commit}")
        elif mine is None:
            found.append(f"{name} is in the lock but declared nowhere: remove its entry")
        elif mine["version"] != locked["version"]:
            found.append(f"{name} moved to version {mine['version']!r}{commit}")
        elif mine["shape"] != locked["shape"]:
            paths = sorted(
                path for path in mine["shape"].keys() | locked["shape"].keys()
                if mine["shape"].get(path) != locked["shape"].get(path)
            )
            if all(path.endswith(":door") for path in paths):
                found.append(f"{name}: a nested door moved its version at {', '.join(paths)}{commit}")
            else:
                leaf = "version" if "version" in mine["shape"] else "format"
                found.append(
                    f"{name} changed shape at {', '.join(paths)} without moving its "
                    f"{leaf} from {mine['version']!r}"
                )
    return found
