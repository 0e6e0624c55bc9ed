"""What one cold ``VideoRepository.load`` touches, counted without a clock.

Opening a saved repository is the cold start of every ranked query, so it
pays once for each byte it must check: the manifest and each video's
metadata are read once (the same bytes are checksummed and parsed), the
column arena is mapped once, and every column it serves — and every slice
of one — is a plain read-only ``np.ndarray``, not an ``np.memmap``, whose
subclass hooks run on every view.  The two named regressions below are
inconsistencies ``load`` used to let through.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import mmap
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.columns import ColumnArena, ColumnSpec
from repro.storage.repository import VideoRepository
from repro.storage.synth import synthetic_repository
from repro.utils.intervals import IntervalSet

N_VIDEOS = 3


@pytest.fixture()
def saved(tmp_path: Path) -> Path:
    synthetic_repository(n_videos=N_VIDEOS, n_clips=40, seed=5).save(tmp_path / "repo")
    return tmp_path / "repo"


def test_one_open_reads_each_json_file_once_and_maps_the_arena_once(saved, monkeypatch):
    reads: Counter[str] = Counter()
    maps = []
    read_bytes, real_open, real_mmap = Path.read_bytes, builtins.open, mmap.mmap

    def counted_read_bytes(path):
        reads[Path(path).name] += 1
        return read_bytes(path)

    def counted_open(file, *args, **kwargs):
        if isinstance(file, (str, Path)):
            reads[Path(file).name] += 1
        return real_open(file, *args, **kwargs)

    def counted_mmap(*args, **kwargs):
        maps.append(args)
        return real_mmap(*args, **kwargs)

    monkeypatch.setattr(Path, "read_bytes", counted_read_bytes)
    monkeypatch.setattr(builtins, "open", counted_open)
    monkeypatch.setattr(mmap, "mmap", counted_mmap)
    repo = VideoRepository.load(saved)
    monkeypatch.undo()

    json_reads = {name: n for name, n in reads.items() if name.endswith(".json")}
    assert len(json_reads) == N_VIDEOS + 1
    assert set(json_reads.values()) == {1}, json_reads
    assert reads["columns.bin"] == 1
    assert len(maps) == 1
    assert repo.n_videos == N_VIDEOS


def test_every_adopted_column_and_its_slices_are_plain_read_only_arrays(saved):
    repo = VideoRepository.load(saved)
    tables = [
        table
        for video_id in repo.video_ids
        for kind in (repo.ingest_of(video_id).object_tables, repo.ingest_of(video_id).action_tables)
        for table in kind.values()
    ]
    assert tables
    for table in tables:
        columns = [
            *table.export_columns(), *table.sorted_block(0, 3), *table.reverse_block(1, 4),
            *table.by_cid_columns(),
        ]
        for column in columns:
            assert type(column) is np.ndarray, type(column)
            assert not column.flags.writeable


def test_an_empty_arena_serves_read_only_arrays(tmp_path):
    VideoRepository().save(tmp_path / "empty")
    assert VideoRepository.load(tmp_path / "empty").n_videos == 0
    column = ColumnArena(tmp_path / "empty" / "columns.bin", 0).column(ColumnSpec("int64", 0, 0))
    assert type(column) is np.ndarray and not column.flags.writeable and len(column) == 0


# -- one named regression per defect found by reading ------------------------------


def _rewrite(root: Path, change_manifest=None, change_meta=None) -> None:
    """Edit the first video's manifest entry and metadata, checksum fixed."""
    manifest = json.loads((root / "manifest.json").read_text())
    entry = manifest["videos"][0]
    meta_path = root / entry["meta"]
    meta = json.loads(meta_path.read_text())
    if change_meta is not None:
        change_meta(meta)
    if change_manifest is not None:
        change_manifest(entry)
    meta_path.write_text(json.dumps(meta))
    entry["sha256"][entry["meta"]] = hashlib.sha256(meta_path.read_bytes()).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))


def test_a_manifest_entry_naming_another_video_is_refused(saved):
    """``{"video_id": "not-v0", "meta": "v0.json"}`` used to load as video
    ``v0``: the manifest's ``video_id`` was never read."""
    _rewrite(saved, change_manifest=lambda entry: entry.update(video_id="not-v0"))
    with pytest.raises(StorageError, match=r"repository manifest\.videos\[0\]\.video_id"):
        VideoRepository.load(saved)


def test_a_label_missing_from_the_sequences_is_refused_at_load(saved):
    """``object_labels: ["ghost"]`` over a ``car`` table with no
    ``object_sequences`` entry used to load, and ``repo.sequences("car")``
    then said ``car`` was not ingested."""
    def change(meta):
        label = next(iter(meta["tables"]["obj"]))
        meta["object_labels"] = ["ghost"]
        del meta["object_sequences"][label]

    _rewrite(saved, change_meta=change)
    with pytest.raises(StorageError, match=r"v0\.json\.object_labels"):
        VideoRepository.load(saved)


@pytest.mark.parametrize(
    "change",
    [
        lambda meta: meta["action_labels"].append(meta["action_labels"][0]),
        lambda meta: meta["tables"]["act"].popitem(),
    ],
    ids=["a label listed twice", "a table missing"],
)
def test_each_kind_lists_its_tables_labels_once(saved, change):
    _rewrite(saved, change_meta=change)
    with pytest.raises(StorageError, match=r"v0\.json\.action_labels"):
        VideoRepository.load(saved)


def test_a_sequence_without_a_table_is_refused_by_add_and_so_by_load(saved):
    """``add`` is the one door: an ingest whose sequences name a label its
    tables do not is refused in memory, so ``save`` never writes a tree
    ``load`` refuses, and ``load`` names the file that holds one."""
    ingest = VideoRepository.load(saved).ingest_of("v0")
    ghost = replace(ingest, action_sequences={**ingest.action_sequences, "ghost": IntervalSet()})
    with pytest.raises(StorageError, match=r"video 'v0' has action tables .* one label set"):
        VideoRepository().add(ghost)
    _rewrite(saved, change_meta=lambda meta: meta["action_sequences"].update(ghost=[[0, 1]]))
    with pytest.raises(StorageError, match=r"v0\.json: video 'v0' has action tables"):
        VideoRepository.load(saved)
