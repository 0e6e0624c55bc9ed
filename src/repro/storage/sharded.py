"""Sharded video repository: one corpus split across N in-memory shards.

A :class:`ShardedRepository` partitions videos across ``n_shards``
independent :class:`~repro.storage.repository.VideoRepository` shards by a
**deterministic key** — a stable hash of the video id — and records the
*global ingestion order* of the videos, which is what lets the
scatter-gather top-K (:func:`repro.core.distributed.sharded_top_k`)
reproduce the single-repository engine's deterministic tie-break order
exactly.  A split lives in memory only: what persists is the single
repository it was split from.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterator

from repro.errors import StorageError
from repro.storage.ingest import VideoIngest
from repro.storage.repository import FORMAT, VideoRepository, audit_columns
from repro.utils.validation import require_positive_int


def shard_of(video_id: str, n_shards: int) -> int:
    """Deterministic shard index of a video id.

    A stable content hash (sha256 prefix), not Python's ``hash`` — the
    routing must agree across processes, interpreter restarts and
    ``PYTHONHASHSEED`` values.
    """
    require_positive_int(n_shards, "n_shards")
    digest = hashlib.sha256(video_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


class ShardedRepository:
    """N disjoint :class:`VideoRepository` shards behaving as one corpus."""

    def __init__(self, n_shards: int) -> None:
        require_positive_int(n_shards, "n_shards")
        self._shards = [VideoRepository() for _ in range(n_shards)]
        self._order: list[str] = []
        self._assignment: dict[str, int] = {}

    # -- membership -------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[VideoRepository, ...]:
        return tuple(self._shards)

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


def describe(directory: str | Path) -> dict[str, object]:
    """Description of a saved repository directory — the ``repro repo
    info`` payload — and its audit: after the O(manifest) load, the column
    arena is streamed through sha256 against its manifest, so corrupted
    column data is a :class:`~repro.errors.StorageError` here."""
    root = Path(directory).resolve()
    repo = VideoRepository.load(root)
    audit_columns(root)
    return {
        "path": str(root),
        "sharded": False,
        "format": FORMAT,
        "n_videos": repo.n_videos,
        "total_clips": repo.total_clips,
    }
