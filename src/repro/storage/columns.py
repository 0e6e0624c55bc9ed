"""Format-3 column arena, mapped read-only.

Every table column of a repository lies back to back in one
flat binary file, ``columns.bin``, with each column's ``(dtype, offset,
length)`` recorded in the per-video metadata.  Opening the repository
maps the arena **once** and serves each table plain read-only
``np.ndarray`` views into it (an ``np.memmap`` view, and every slice of
one, costs ~6x as much through the subclass's hooks):

* open time is O(#videos + #labels), independent of the clip count — no
  page of column data is read until a query touches that label;
* processes mapping the same repository share the file's pages through
  the OS page cache instead of each materialising a private copy.

All four internal :class:`~repro.storage.table.ClipScoreTable` columns
(score order *and* the by-cid permutation) are persisted, so adoption at
load time performs no sort.  Offsets are 64-byte aligned so the views
satisfy any dtype's alignment requirement.
"""

from __future__ import annotations

import json
import mmap
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Literal, NamedTuple

import numpy as np

from repro.errors import StorageError
from repro.utils.validation import Count

#: Alignment (bytes) of every column inside the arena.
_ALIGN = 64

#: dtypes a column spec may name — a tiny allow-list so a corrupted
#: manifest cannot make us build views with arbitrary dtype strings.
_DTYPES = {"int64": np.dtype(np.int64), "float64": np.dtype(np.float64)}


@dataclass(frozen=True)
class ColumnSpec:
    """Location of one column inside the arena: ``arena[offset:...]``."""

    dtype: Literal["int64", "float64"]
    offset: Count
    length: Count


class ColumnArenaWriter:
    """Streams aligned columns into an arena file, returning their specs."""

    def __init__(self, handle: BinaryIO) -> None:
        self._handle = handle
        self._offset = 0

    def append(self, column: np.ndarray) -> ColumnSpec:
        """Write one column (little-endian, C order) and return its spec."""
        name = column.dtype.name
        if name not in _DTYPES:
            raise StorageError(f"unsupported column dtype {name!r}")
        pad = (-self._offset) % _ALIGN
        if pad:
            self._handle.write(b"\0" * pad)
            self._offset += pad
        spec = ColumnSpec(dtype=name, offset=self._offset, length=len(column))
        data = np.ascontiguousarray(column).tobytes()
        self._handle.write(data)
        self._offset += len(data)
        return spec

    @property
    def size(self) -> int:
        """Bytes written so far — recorded in the manifest and verified at
        open time, so a truncated arena is refused in O(1)."""
        return self._offset


class ColumnArena:
    """A read-only memory map over ``columns.bin`` serving column views.

    One map per repository regardless of how many tables it holds: every
    column is a zero-copy slice of it, so opening thousands of tables
    costs no page reads and no extra fds.
    """

    def __init__(self, path: Path, expected_size: int) -> None:
        try:
            with open(path, "rb") as handle:
                actual = os.fstat(handle.fileno()).st_size
                # an empty file cannot be mapped
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) if actual else b""
        except OSError as exc:
            raise StorageError(
                f"column arena {path} is missing — torn or partial save: {exc}"
            ) from exc
        if actual != expected_size:
            raise StorageError(
                f"column arena {path} is {actual} bytes but the manifest "
                f"recorded {expected_size} — torn or truncated save"
            )
        self._path = path
        self._raw = np.frombuffer(mapped, dtype=np.uint8)

    def column(self, spec: ColumnSpec) -> np.ndarray:
        """The column a spec describes, as a zero-copy read-only view."""
        dtype = _DTYPES[spec.dtype]
        stop = spec.offset + spec.length * dtype.itemsize
        if stop > len(self._raw):
            raise StorageError(
                f"column spec [{spec.offset}, {stop}) outside arena "
                f"{self._path} of {len(self._raw)} bytes — corrupted manifest"
            )
        return self._raw[spec.offset : stop].view(dtype)


class TableColumns(NamedTuple):
    """One table's columns inside the arena, in export order."""

    cids: ColumnSpec
    scores: ColumnSpec
    cids_by_cid: ColumnSpec
    scores_by_cid: ColumnSpec


def read_json(path: Path, describe: str, data: bytes | None = None) -> dict[str, object]:
    """Read a JSON object file — or parse ``data``, its bytes as a caller
    read and checked them — mapping every failure mode to a torn-state
    :class:`~repro.errors.StorageError`."""
    try:
        payload = json.loads(path.read_bytes() if data is None else data)
    except OSError as exc:
        raise StorageError(f"{describe} {path} is missing — torn save: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise StorageError(
            f"{describe} {path} is not valid JSON — torn or interrupted save: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise StorageError(f"{describe} {path} must hold a JSON object")
    return payload
