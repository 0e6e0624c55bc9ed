"""Offline storage substrate: clip score tables, ingestion, repository.

§4.2's metadata layer.  The paper measures offline query cost in *random
disk accesses* to the clip score tables; here the tables are in memory but
every access is metered through :class:`repro.storage.access.AccessStats`,
so the Table 6–8 comparisons count identically.

Repositories persist in one on-disk format: the format-3 column arena
(:mod:`repro.storage.columns`), mapped read-only, that opens in O(manifest).
A repository splits into in-memory shards (:mod:`repro.storage.sharded`)
for the scatter-gather top-K.
"""

from repro.storage.access import AccessStats
from repro.storage.columns import ColumnArena, ColumnArenaWriter, ColumnSpec
from repro.storage.ingest import (
    IngestOutcome,
    VideoIngest,
    ingest_many,
    ingest_video,
    retry_failed,
)
from repro.storage.repository import VideoRepository
from repro.storage.sharded import ShardedRepository, describe, shard_of
from repro.storage.synth import synthetic_ingest, synthetic_repository
from repro.storage.table import ClipScoreTable

__all__ = [
    "AccessStats",
    "ClipScoreTable",
    "ColumnArena",
    "ColumnArenaWriter",
    "ColumnSpec",
    "VideoIngest",
    "IngestOutcome",
    "ingest_video",
    "ingest_many",
    "retry_failed",
    "VideoRepository",
    "ShardedRepository",
    "shard_of",
    "describe",
    "synthetic_ingest",
    "synthetic_repository",
]
