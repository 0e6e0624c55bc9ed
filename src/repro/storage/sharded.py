"""Sharded video repository: one corpus partitioned across N shard dirs.

The single :class:`~repro.storage.repository.VideoRepository` keeps every
video's metadata in one process and one global clip-id space; fine for a
benchmark, wrong for the ROADMAP's "millions of videos on disk".  A
:class:`ShardedRepository` partitions videos across ``n_shards``
independent repositories by a **deterministic key** — a stable hash of
the video id — so that

* any process can route a video id to its shard without coordination
  (ingest routing, result localisation, incremental adds);
* each shard is a plain ``VideoRepository`` persisted in the format-3
  column arena, mapped in O(1) and sharing pages across the
  scatter-gather worker processes
  (:func:`repro.core.distributed.sharded_top_k`);
* the *global ingestion order* of videos is recorded in the shard
  manifest, which is what lets the distributed top-K reproduce the
  single-repository engine's deterministic tie-break order exactly.

Saving reuses the crash-safe staging/promote path of the single
repository: the whole shard tree (every shard directory plus the
top-level ``shard-manifest.json``, written last) is staged in a sibling
directory and promoted with one rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Literal, Mapping

from repro.errors import StorageError
from repro.storage.columns import read_json
from repro.storage.ingest import VideoIngest
from repro.storage.repository import (
    FORMAT,
    VideoRepository,
    _promote,
    audit_columns,
)
from repro.utils.validation import Count, FileName, Positive, read_record, require_positive_int, write_record
from repro._typing import StateDict

_MANIFEST = "shard-manifest.json"


def shard_of(video_id: str, n_shards: int) -> int:
    """Deterministic shard index of a video id.

    A stable content hash (sha256 prefix), not Python's ``hash`` — the
    routing must agree across processes, interpreter restarts and
    ``PYTHONHASHSEED`` values, because workers route independently.
    """
    require_positive_int(n_shards, "n_shards")
    digest = hashlib.sha256(video_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


@dataclass
class ShardManifest:
    """Typed view of the top-level ``shard-manifest.json`` state.

    ``video_order`` is the global ingestion order across all shards — the
    single-repository insertion order a merged view reproduces, and the
    tie-break key of the distributed top-K.  ``assignment`` pins each
    video to the shard index :func:`shard_of` routed it to at add time,
    so a later ``n_shards`` change cannot silently re-route history.
    """

    #: Only ever this: the reader tests it before the shape.
    format: Literal["sharded-1"] = field(default="sharded-1", kw_only=True)
    n_shards: Positive
    shard_dirs: list[FileName] = field(default_factory=list)
    video_order: list[str] = field(default_factory=list)
    assignment: dict[str, Count] = field(default_factory=dict)

    def state_dict(self) -> StateDict:
        return write_record(self)

    @classmethod
    def from_state_dict(cls, state: Mapping[str, object]) -> "ShardManifest":
        manifest = read_record(cls, state, "shard manifest", StorageError)
        if len(manifest.shard_dirs) != manifest.n_shards:
            raise StorageError(
                f"shard manifest names {len(manifest.shard_dirs)} shard "
                f"directories for n_shards={manifest.n_shards} — corrupted"
            )
        for video_id, shard in manifest.assignment.items():
            if not 0 <= shard < manifest.n_shards:
                raise StorageError(
                    f"video {video_id!r} assigned to shard {shard} outside "
                    f"0..{manifest.n_shards - 1} — corrupted manifest"
                )
        if sorted(manifest.video_order) != sorted(manifest.assignment):
            raise StorageError(
                "shard manifest video_order and assignment disagree — "
                "corrupted manifest"
            )
        return manifest


class ShardedRepository:
    """N disjoint :class:`VideoRepository` shards behaving as one corpus."""

    def __init__(self, n_shards: int) -> None:
        require_positive_int(n_shards, "n_shards")
        self._shards = [VideoRepository() for _ in range(n_shards)]
        self._order: list[str] = []
        self._assignment: dict[str, int] = {}
        #: Directory this repository was loaded from / saved to, if any: the
        #: process executor ships shard *paths* to its workers, which map
        #: their shards in O(1), instead of pickling table columns.
        self.path: Path | None = None

    # -- membership -------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[VideoRepository, ...]:
        return tuple(self._shards)

    @property
    def video_ids(self) -> tuple[str, ...]:
        """All video ids in global ingestion order."""
        return tuple(self._order)

    @property
    def n_videos(self) -> int:
        return len(self._order)

    @property
    def total_clips(self) -> int:
        return sum(shard.total_clips for shard in self._shards)

    def shard_index_of(self, video_id: str) -> int:
        shard = self._assignment.get(video_id)
        if shard is None:
            raise StorageError(f"video {video_id!r} not in sharded repository")
        return shard

    def add(self, ingest: VideoIngest) -> None:
        """Route an ingested video to its deterministic shard."""
        if ingest.video_id in self._assignment:
            raise StorageError(
                f"video {ingest.video_id!r} already in sharded repository"
            )
        shard = shard_of(ingest.video_id, self.n_shards)
        self._shards[shard].add(ingest)
        self._assignment[ingest.video_id] = shard
        self._order.append(ingest.video_id)
        self.path = None  # in-memory membership diverged from any saved tree

    def remove(self, video_id: str) -> None:
        shard = self.shard_index_of(video_id)
        self._shards[shard].remove(video_id)
        del self._assignment[video_id]
        self._order.remove(video_id)
        self.path = None

    def ingest_of(self, video_id: str) -> VideoIngest:
        return self._shards[self.shard_index_of(video_id)].ingest_of(video_id)

    def global_order(self) -> dict[str, int]:
        """``video_id -> position`` in the global ingestion order — the
        deterministic tie-break key the distributed top-K merge uses to
        reproduce the single-repository ranking exactly."""
        return {video_id: i for i, video_id in enumerate(self._order)}

    def iter_ingests(self) -> Iterator[VideoIngest]:
        """Every ingest in global ingestion order."""
        for video_id in self._order:
            yield self.ingest_of(video_id)

    # -- construction ----------------------------------------------------------------

    @classmethod
    def split(
        cls, repository: VideoRepository, n_shards: int
    ) -> "ShardedRepository":
        """Partition an existing single repository's videos across shards.

        Videos are routed in the source repository's insertion order, so
        the recorded global order equals the single-node order and the
        sharded top-K stays result-identical to the unsharded engine.
        """
        sharded = cls(n_shards)
        for video_id in repository.video_ids:
            sharded.add(repository.ingest_of(video_id))
        return sharded

    def merged(self) -> VideoRepository:
        """A single repository holding every video in global order — the
        equivalence oracle the tests compare the distributed engine to."""
        merged = VideoRepository()
        for ingest in self.iter_ingests():
            merged.add(ingest)
        return merged

    # -- persistence ---------------------------------------------------------------------

    def _manifest(self, shard_dirs: list[str]) -> ShardManifest:
        return ShardManifest(
            n_shards=self.n_shards,
            shard_dirs=shard_dirs,
            video_order=list(self._order),
            assignment=dict(self._assignment),
        )

    def save(self, directory: str | Path) -> None:
        """Persist the whole shard tree atomically, each shard format 3.

        The stage-then-promote discipline of
        :meth:`VideoRepository.save` applies to the *tree*: every shard
        directory is staged first, the shard manifest is written last,
        and only a complete stage is renamed over ``directory``.
        """
        root = Path(directory).resolve()
        root.parent.mkdir(parents=True, exist_ok=True)
        staging = root.parent / f"{root.name}.saving-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        try:
            shard_dirs = [f"shard-{i:03d}" for i in range(self.n_shards)]
            for name, shard in zip(shard_dirs, self._shards):
                shard.save(staging / name)
            (staging / _MANIFEST).write_text(
                json.dumps(self._manifest(shard_dirs).state_dict())
            )
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        _promote(staging, root)
        self.path = root

    @classmethod
    def load(cls, directory: str | Path) -> "ShardedRepository":
        """Open a saved shard tree; O(1) per shard in clip count.

        A torn manifest (top-level or any shard's) raises
        :class:`~repro.errors.StorageError`; sibling shards are never
        half-loaded — the load either yields the full corpus or nothing.
        """
        root = Path(directory).resolve()
        manifest = ShardManifest.from_state_dict(
            read_json(root / _MANIFEST, "shard manifest")
        )
        sharded = cls(manifest.n_shards)
        sharded._shards = [VideoRepository.load(root / name) for name in manifest.shard_dirs]
        found = {
            video_id: index
            for index, shard in enumerate(sharded._shards)
            for video_id in shard.video_ids
        }
        if found != manifest.assignment:
            wrong = sorted(set(found.items()) ^ set(manifest.assignment.items()))
            raise StorageError(
                f"shard tree under {root} does not match its manifest-assigned "
                f"shards at {wrong[:3]!r} — torn or corrupted save"
            )
        sharded._order = list(manifest.video_order)
        sharded._assignment = dict(manifest.assignment)
        sharded.path = root
        return sharded

    @staticmethod
    def shard_paths(directory: str | Path) -> list[Path]:
        """The shard directories a saved tree's manifest names, in index
        order — what the process executor ships to its workers."""
        root = Path(directory).resolve()
        manifest = ShardManifest.from_state_dict(
            read_json(root / _MANIFEST, "shard manifest")
        )
        return [root / name for name in manifest.shard_dirs]


def is_sharded(directory: str | Path) -> bool:
    """True when ``directory`` holds a saved shard tree (vs a single
    repository)."""
    return (Path(directory) / _MANIFEST).exists()


def describe(directory: str | Path) -> dict[str, object]:
    """Description of a saved repository directory — the ``repro repo
    info`` payload — and its audit: after the O(manifest) load, every
    column arena (each shard's, for a tree) is streamed through sha256
    against its manifest, so corrupted column data is a
    :class:`~repro.errors.StorageError` here."""
    root = Path(directory).resolve()
    if is_sharded(root):
        sharded = ShardedRepository.load(root)
        for shard_dir in ShardedRepository.shard_paths(root):
            audit_columns(shard_dir)
        return {
            "path": str(root),
            "sharded": True,
            "n_shards": sharded.n_shards,
            "n_videos": sharded.n_videos,
            "total_clips": sharded.total_clips,
            "videos_per_shard": [s.n_videos for s in sharded.shards],
            "clips_per_shard": [s.total_clips for s in sharded.shards],
        }
    repo = VideoRepository.load(root)
    audit_columns(root)
    return {
        "path": str(root),
        "sharded": False,
        "format": FORMAT,
        "n_videos": repo.n_videos,
        "total_clips": repo.total_clips,
    }


def route_ingests(
    ingests: Iterable[VideoIngest], n_shards: int
) -> list[list[VideoIngest]]:
    """Group ingests by deterministic shard key (helper for bulk loads)."""
    buckets: list[list[VideoIngest]] = [[] for _ in range(n_shards)]
    for ingest in ingests:
        buckets[shard_of(ingest.video_id, n_shards)].append(ingest)
    return buckets
