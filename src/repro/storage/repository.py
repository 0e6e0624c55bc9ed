"""Multi-video repository (§4.2, "Multiple videos are handled ... by
associating a video identifier to each clip identifier").

Each ingested video gets a contiguous range in a *global clip-id space*
with a one-id gap between videos, so that

* interval algebra (and hence Eq. 12's ``⊗``) works unchanged across the
  whole repository, and
* result sequences can never merge across a video boundary.

The repository lazily materialises repository-level clip score tables
(per-video tables shifted into global ids and merged) and repository-level
individual sequences; adding or removing a video just invalidates those
caches — the cheap maintenance story the paper highlights.

Persistence: :meth:`VideoRepository.save` / :meth:`load` round-trip the
ingested metadata (not the synthetic videos) through one column arena
(:mod:`repro.storage.columns`), mapped read-only, and JSON files.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Final, Iterable, Literal, Sequence

import numpy as np

from repro.errors import StorageError
from repro.storage.columns import ColumnArena, ColumnArenaWriter, TableColumns, read_json
from repro.storage.ingest import VideoIngest
from repro.storage.table import ClipScoreTable
from repro.utils.intervals import Interval, IntervalSet, intersect_all
from repro.utils.validation import Amount, Count, FileName, read_record, write_record


#: The on-disk format :meth:`VideoRepository.save` writes and
#: :meth:`VideoRepository.load` reads.
FORMAT: Final = 3


class VideoRepository:
    """An ordered collection of ingested videos in one global id space."""

    #: Gap inserted between consecutive videos' clip-id ranges.
    GAP = 1

    def __init__(self) -> None:
        self._ingests: dict[str, VideoIngest] = {}
        self._offsets: dict[str, int] = {}
        self._next_offset = 0
        self._table_cache: dict[str, ClipScoreTable] = {}
        self._sequence_cache: dict[str, IntervalSet] = {}
        self._result_cache: dict[tuple[str, ...], IntervalSet] = {}
        #: Parallel sorted lists ``(offsets, video_ids)`` backing the
        #: binary-searched :meth:`to_local`; rebuilt lazily after
        #: membership changes.
        self._offset_index: tuple[list[int], list[str]] | None = None

    # -- membership -------------------------------------------------------------

    def add(self, ingest: VideoIngest) -> None:
        """Register an ingested video, assigning it a global id range.  Its
        tables and sequences of each kind must name one label set, or the
        repository would save a tree that :meth:`load` refuses."""
        if ingest.video_id in self._ingests:
            raise StorageError(f"video {ingest.video_id!r} already in repository")
        for kind, tables, spans in (
            ("object", ingest.object_tables, ingest.object_sequences),
            ("action", ingest.action_tables, ingest.action_sequences),
        ):
            if tables.keys() != spans.keys():
                raise StorageError(f"video {ingest.video_id!r} has {kind} tables {sorted(tables)} "
                                   f"but {kind} sequences {sorted(spans)}: one label set each")
        self._ingests[ingest.video_id] = ingest
        self._offsets[ingest.video_id] = self._next_offset
        self._next_offset += ingest.n_clips + self.GAP
        self._invalidate()

    def _invalidate(self) -> None:
        self._table_cache.clear()
        self._sequence_cache.clear()
        self._result_cache.clear()
        self._offset_index = None

    @property
    def video_ids(self) -> tuple[str, ...]:
        return tuple(self._ingests.keys())

    @property
    def n_videos(self) -> int:
        return len(self._ingests)

    @property
    def total_clips(self) -> int:
        return sum(ing.n_clips for ing in self._ingests.values())

    @property
    def id_span(self) -> int:
        """One past the highest global clip id ever assigned — ids are
        gapped between videos and never reused, so this exceeds
        :attr:`total_clips`."""
        return self._next_offset

    def ingest_of(self, video_id: str) -> VideoIngest:
        ingest = self._ingests.get(video_id)
        if ingest is None:
            raise StorageError(f"video {video_id!r} not in repository")
        return ingest

    # -- id translation ------------------------------------------------------------

    def to_local(self, global_cid: int) -> tuple[str, int]:
        """Map a global clip id back to ``(video_id, clip_id)``.

        Binary search over the sorted offsets — offsets are assigned
        strictly increasing and never reused, so insertion order is sorted
        order (the one-id gap after each video is what the range check
        below rejects).
        """
        if self._offset_index is None:
            self._offset_index = (
                list(self._offsets.values()),
                list(self._offsets.keys()),
            )
        starts, video_ids = self._offset_index
        pos = bisect_right(starts, global_cid) - 1
        if pos >= 0:
            video_id = video_ids[pos]
            local = global_cid - starts[pos]
            if local < self._ingests[video_id].n_clips:
                return video_id, local
        raise StorageError(f"global clip id {global_cid} maps to no video")

    # -- repository-level metadata ----------------------------------------------------

    def table(self, label: str) -> ClipScoreTable:
        """The repository-wide clip score table for one label (cached).

        Videos ingested without the label contribute no rows: the paper
        ingests every model-supported label per video, but a repository
        assembled from differently-ingested videos stays queryable — query
        results are then confined to videos that carry all query labels
        (their intersection ``P_q`` excludes the others anyway).
        """
        cached = self._table_cache.get(label)
        if cached is not None:
            return cached
        if not self._ingests:
            raise StorageError("repository is empty")
        parts = [
            ingest.table_for(label).shifted(self._offsets[video_id])
            for video_id, ingest in self._ingests.items()
            if label in ingest.labels
        ]
        if not parts:
            raise StorageError(f"no ingested video carries label {label!r}")
        merged = ClipScoreTable.merged(label, parts)
        self._table_cache[label] = merged
        return merged

    def sequences(self, label: str) -> IntervalSet:
        """Repository-wide individual sequences for one label (cached);
        videos ingested without the label contribute none."""
        cached = self._sequence_cache.get(label)
        if cached is not None:
            return cached
        # Offsets grow in insertion order with a one-id gap, so the shifted
        # per-video columns concatenate into one canonical set.
        parts = [
            np.stack(ingest.sequences_for(label).columns()) + self._offsets[vid]
            for vid, ingest in self._ingests.items()
            if label in ingest.labels
        ]
        merged = IntervalSet.from_columns(*np.concatenate(parts, axis=1) if parts else ((), ()))
        self._sequence_cache[label] = merged
        return merged

    def result_sequences(self, labels: Sequence[str]) -> IntervalSet:
        """``P_q = P_l1 ⊗ … ⊗ P_ln`` (Eq. 12) over the labels' individual
        sequences, in global clip ids (cached per ordered label tuple, so
        the same query at several ``LIMIT``s pays one sweep)."""
        key = tuple(labels)
        cached = self._result_cache.get(key)
        if cached is None:
            cached = intersect_all([self.sequences(label) for label in key])
            self._result_cache[key] = cached
        return cached

    def all_clips(self) -> IntervalSet:
        """Every (global) clip id currently in the repository — the ``C(X)``
        universe that initialises RVAQ's skip set."""
        return IntervalSet(
            Interval(offset, offset + self._ingests[vid].n_clips - 1)
            for vid, offset in self._offsets.items()
        )

    # -- persistence ---------------------------------------------------------------------

    def save(self, directory: str | Path, *, format: int = FORMAT) -> None:
        """Write the ingested metadata to ``directory``, atomically.

        All four internal columns of every table are laid into one flat
        ``columns.bin`` arena (:mod:`repro.storage.columns`: score order
        *and* the by-cid permutation, so loads never sort) with per-column
        offsets in each video's JSON metadata; the manifest, written last,
        records the arena's exact size and sha256 plus a checksum per
        metadata file.  :meth:`load` then opens the repository by
        memory-mapping the arena once — O(manifest), no eager column
        materialisation, and processes mapping the same directory
        share pages through the OS cache.

        This is format 3, the only one.  ``format`` accepts nothing but
        ``3``: it is kept because ``benchmarks/svqbench`` passes it.

        Crash safety: everything is staged in a sibling temporary
        directory and only a fully written stage is promoted over
        ``directory``.  A crash at any point during staging leaves a
        previously saved repository untouched; :meth:`load` verifies the
        metadata checksums and the arena's *size*, so a torn copy of the
        directory is detected rather than half-loaded.  It does not stream
        the column data through sha256 (that would defeat the O(manifest)
        open); :func:`audit_columns` does, for ``repro repo info``.
        """
        if format != FORMAT:
            raise StorageError(
                f"unknown repository save format {format!r}; this build "
                f"writes format {FORMAT} only"
            )
        root = Path(directory).resolve()
        root.parent.mkdir(parents=True, exist_ok=True)
        staging = root.parent / f"{root.name}.saving-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        try:
            self._stage(staging)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        _promote(staging, root)

    def _stage(self, staging: Path) -> None:
        """Write the arena, the per-video metadata and the manifest."""
        names = _unique_safe_names(self._ingests.keys())
        arena_path = staging / "columns.bin"
        entries = []
        with open(arena_path, "wb") as handle:
            writer = ColumnArenaWriter(handle)
            for video_id, ingest in self._ingests.items():
                tables = Tables(*(
                    {
                        label: TableColumns(*map(writer.append, map(np.asarray, table.export_columns())))
                        for label, table in kind.items()
                    }
                    for kind in (ingest.object_tables, ingest.action_tables)
                ))
                meta = staging / f"{names[video_id]}.json"
                meta.write_text(json.dumps(write_record(_video_meta(ingest, tables))))
                entries.append(VideoEntry(video_id, meta.name, {meta.name: _sha256(meta)}))
        manifest = Manifest(FORMAT, arena_path.name, entries, writer.size, _sha256(arena_path))
        (staging / "manifest.json").write_text(json.dumps(write_record(manifest)))

    @classmethod
    def load(cls, directory: str | Path) -> "VideoRepository":
        """Open a repository previously written with :meth:`save`.

        O(manifest), each file read once: a metadata file's bytes are
        checksummed and parsed as read, the arena is mapped once and only
        its size checked, and tables adopt plain read-only views into the
        map, paged in when a query touches their label.  Torn or
        inconsistent state — a manifest that is not JSON or names another
        format, metadata that is missing, fails its checksum or disagrees
        with the manifest or itself, an arena of the wrong size — raises
        :class:`~repro.errors.StorageError`.
        """
        root = Path(directory)
        manifest = _read_manifest(root)
        arena = ColumnArena(root / manifest.columns, manifest.columns_size)
        repo = cls()
        for i, entry in enumerate(manifest.videos):
            meta_path = root / entry.meta
            if entry.sha256.keys() != {entry.meta}:
                raise StorageError(f"{root} manifest sums {list(entry.sha256)}, not {entry.meta}")
            try:
                data = meta_path.read_bytes()
            except OSError as exc:
                raise StorageError(
                    f"repository under {root} references {entry.meta} but "
                    f"the file is missing — torn or partial save"
                ) from exc
            if hashlib.sha256(data).hexdigest() != entry.sha256[entry.meta]:
                raise StorageError(
                    f"checksum mismatch for {entry.meta} under {root} — "
                    f"torn or corrupted save"
                )
            payload = read_json(meta_path, "video metadata", data)
            meta = read_record(VideoMeta, payload, str(meta_path), StorageError)
            if meta.video_id != entry.video_id:
                raise StorageError(f"repository manifest.videos[{i}].video_id under {root} is "
                                   f"{entry.video_id!r}, but {entry.meta} holds {meta.video_id!r}")
            for kind, labels, tables in (
                ("object", meta.object_labels, meta.tables.obj),
                ("action", meta.action_labels, meta.tables.act),
            ):
                if sorted(labels) != sorted(tables):
                    raise StorageError(f"{meta_path}.{kind}_labels {labels} must name the "
                                       f"labels of its tables, once each")
            try:
                repo.add(
                    VideoIngest(
                        video_id=meta.video_id,
                        n_clips=meta.n_clips,
                        object_tables=_adopt_tables(arena, meta.tables.obj),
                        action_tables=_adopt_tables(arena, meta.tables.act),
                        object_sequences=meta.object_sequences,
                        action_sequences=meta.action_sequences,
                        ingest_cost_ms=meta.ingest_cost_ms,
                    )
                )
            except StorageError as exc:
                raise StorageError(f"{meta_path}: {exc}") from exc
        return repo


def _read_manifest(root: Path) -> Manifest:
    """The manifest of the repository under ``root``; any format but
    :data:`FORMAT` is refused by name."""
    path = root / "manifest.json"
    if not path.exists():
        raise StorageError(f"no repository manifest under {root}")
    return read_record(Manifest, read_json(path, "repository manifest"), str(path), StorageError)


def audit_columns(directory: str | Path) -> None:
    """Stream a saved repository's column arena through sha256 against
    the manifest's record — the full-data check :meth:`VideoRepository.load`
    skips to stay O(manifest)."""
    root = Path(directory)
    manifest = _read_manifest(root)
    if _sha256(root / manifest.columns) != manifest.columns_sha256:
        raise StorageError(
            f"checksum mismatch for {manifest.columns} under {root} — corrupted "
            f"column data"
        )


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    meta: FileName
    sha256: dict[str, str]


@dataclass(frozen=True)
class Manifest:
    """``manifest.json`` as :meth:`VideoRepository.save` writes it."""

    format: Literal[3]
    columns: FileName
    videos: list[VideoEntry]
    columns_size: Count
    columns_sha256: str


@dataclass(frozen=True)
class Tables:
    obj: dict[str, TableColumns]
    act: dict[str, TableColumns]


@dataclass(frozen=True)
class VideoMeta:
    """A video's JSON metadata, as :func:`_video_meta` builds it."""

    video_id: str
    n_clips: Count
    object_labels: list[str]
    action_labels: list[str]
    object_sequences: dict[str, IntervalSet]
    action_sequences: dict[str, IntervalSet]
    ingest_cost_ms: Amount
    tables: Tables


def _video_meta(ingest: VideoIngest, tables: Tables) -> VideoMeta:
    """One video's metadata, its tables' places in the arena included."""
    return VideoMeta(
        ingest.video_id, ingest.n_clips, list(ingest.object_tables), list(ingest.action_tables),
        ingest.object_sequences, ingest.action_sequences, ingest.ingest_cost_ms, tables,
    )


def _adopt_tables(
    arena: ColumnArena, section: dict[str, TableColumns]
) -> dict[str, ClipScoreTable]:
    """Adopt every table of one kind as zero-copy views into the arena."""
    return {
        label: ClipScoreTable._adopt_columns(label, *map(arena.column, columns))
        for label, columns in section.items()
    }


def _safe_name(video_id: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in video_id)


def _unique_safe_names(video_ids: Iterable[str]) -> dict[str, str]:
    """Map each video id to a collision-free file stem.

    ``_safe_name`` is lossy ("a/b" and "a:b" both sanitise to "a_b"), so
    ids whose stems collide are disambiguated with a deterministic short
    hash of the raw id — previously the later video silently overwrote
    the earlier one's arrays on disk.  Unambiguous ids keep their plain
    stem, so existing directories and their manifests stay byte-stable.
    """
    by_stem: dict[str, list[str]] = {}
    for video_id in video_ids:
        by_stem.setdefault(_safe_name(video_id), []).append(video_id)
    names: dict[str, str] = {}
    for stem, ids in by_stem.items():
        if len(ids) == 1:
            names[ids[0]] = stem
        else:
            for video_id in ids:
                digest = hashlib.sha1(video_id.encode()).hexdigest()[:8]
                names[video_id] = f"{stem}-{digest}"
    if len(set(names.values())) != len(names):
        raise StorageError("video ids produce colliding file names")
    return names


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _promote(staging: Path, root: Path) -> None:
    """Atomically promote a fully staged repository over ``root``.

    A fresh save is one rename.  Overwriting parks the old directory,
    renames the stage into place and only then deletes the parked copy;
    if the swap itself fails the old repository is restored.
    """
    if not root.exists():
        os.rename(staging, root)
        return
    parked = root.parent / f"{root.name}.replaced-{os.getpid()}"
    if parked.exists():
        shutil.rmtree(parked)
    os.rename(root, parked)
    try:
        os.rename(staging, root)
    except BaseException:
        os.rename(parked, root)
        raise
    shutil.rmtree(parked, ignore_errors=True)
