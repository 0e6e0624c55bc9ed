"""``P_q`` on columns: interval sets as ``(starts, ends)`` arrays from the
JSON lists to the working set, with the same values the object path gave."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntervalError, StorageError
from repro.storage.repository import VideoRepository
from repro.storage.table import ClipScoreTable
from repro.utils.intervals import Interval, IntervalSet, intersect_all
from tests.reference.intervals import intersect_sweep
from tests.storage.test_repository import fake_ingest


def spans(max_id: int = 40, max_size: int = 10) -> st.SearchStrategy[list[tuple[int, int]]]:
    """Raw spans: any order, overlapping, nested, adjacent, single points."""
    return st.lists(
        st.tuples(st.integers(0, max_id), st.integers(0, 6)).map(
            lambda t: (t[0], t[0] + t[1])
        ),
        max_size=max_size,
    )


class TestColumnarIntersect:
    @given(spans(), spans())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_two_pointer_sweep(self, a, b):
        left, right = IntervalSet(a), IntervalSet(b)
        got = left.intersect(right)
        assert got == intersect_sweep(left, right)
        assert got == right.intersect(left)
        # Canonical as it stands: nothing for the constructor to merge.
        assert IntervalSet(got.as_tuples()).as_tuples() == got.as_tuples()

    @pytest.mark.parametrize(
        "a, b, want",
        [
            ([], [(0, 5)], []),
            ([(0, 5)], [], []),
            ([(3, 3)], [(3, 3)], [(3, 3)]),
            ([(3, 3)], [(4, 4)], []),  # adjacent points share nothing
            ([(0, 9)], [(2, 3), (5, 5), (7, 12)], [(2, 3), (5, 5), (7, 9)]),  # nested
            ([(0, 4), (6, 9)], [(4, 6)], [(4, 4), (6, 6)]),
            ([(0, 2), (4, 6)], [(3, 3)], []),  # falls in the gap
        ],
    )
    def test_edge_operands(self, a, b, want):
        assert IntervalSet(a).intersect(IntervalSet(b)).as_tuples() == want

    @given(spans(), spans(), spans())
    def test_intersect_all_over_columns(self, a, b, c):
        sets = [IntervalSet(x) for x in (a, b, c)]
        want = intersect_sweep(intersect_sweep(sets[0], sets[1]), sets[2])
        assert intersect_all(sets) == want


class TestFromColumns:
    @given(spans())
    def test_any_columns_give_the_constructors_set(self, raw):
        starts = np.array([s for s, _ in raw], dtype=np.int64)
        ends = np.array([e for _, e in raw], dtype=np.int64)
        built = IntervalSet.from_columns(starts, ends)
        assert built == IntervalSet(raw)
        assert len(built) == len(IntervalSet(raw))
        assert built.total_length == sum(len(iv) for iv in IntervalSet(raw))

    def test_canonical_columns_are_adopted_and_objects_come_late(self):
        starts, ends = np.array([0, 5, 9]), np.array([2, 6, 9])
        adopted = IntervalSet.from_columns(starts, ends)
        assert adopted._items is None  # no Interval built yet
        assert len(adopted) == 3 and bool(adopted)
        assert adopted.columns()[0] is not None and adopted._items is None
        assert list(adopted) == [Interval(0, 2), Interval(5, 6), Interval(9, 9)]
        assert adopted._items is not None
        assert hash(adopted) == hash(IntervalSet([(0, 2), (5, 6), (9, 9)]))

    def test_a_reversed_pair_is_still_refused(self):
        with pytest.raises(IntervalError):
            IntervalSet.from_columns(np.array([4]), np.array([3]))

    def test_columns_of_an_object_built_set(self):
        starts, ends = IntervalSet([(7, 9), (0, 2), (3, 3)]).columns()
        assert starts.tolist() == [0, 7] and ends.tolist() == [3, 9]
        assert starts.dtype == ends.dtype == np.int64
        empty = IntervalSet().columns()
        assert len(empty[0]) == len(empty[1]) == 0


class TestRepositoryOnColumns:
    def test_sequences_are_the_shifted_concatenation(self):
        repo = VideoRepository()
        repo.add(fake_ingest("a", 10))
        repo.add(fake_ingest("c", 4))
        assert repo.sequences("car").as_tuples() == [(0, 5), (11, 13)]
        assert repo.sequences("jumping").as_tuples() == [(1, 9), (12, 14)]
        assert repo.sequences("nothing").as_tuples() == []
        assert repo.result_sequences(["jumping", "car"]).as_tuples() == [
            (1, 5), (12, 13)
        ]

    def test_load_normalises_unsorted_overlapping_json(self, tmp_path):
        """A tree whose JSON sequences are not canonical (hand-edited, or
        written by something else) still loads as the normalised set."""
        repo = VideoRepository()
        repo.add(fake_ingest("a", 12))
        repo.save(tmp_path)
        meta_path = tmp_path / "a.json"
        meta = json.loads(meta_path.read_text())
        meta["object_sequences"]["car"] = [[8, 9], [0, 2], [2, 4], [5, 5], [11, 11]]
        meta["action_sequences"]["jumping"] = []
        meta_path.write_text(json.dumps(meta))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["videos"][0]["sha256"]["a.json"] = hashlib.sha256(
            meta_path.read_bytes()
        ).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        loaded = VideoRepository.load(tmp_path)
        assert loaded.sequences("car").as_tuples() == [(0, 5), (8, 9), (11, 11)]
        assert loaded.sequences("jumping").as_tuples() == []
        assert not loaded.result_sequences(["jumping", "car"])

    @pytest.mark.parametrize(
        "entries",
        [
            [[0, 2], [4]],  # ragged
            [[0, 2, 4, 6]],  # one entry of four numbers, not two pairs
            [0, 2, 4, 6],  # flat
            [[[0, 2]], [[4, 6]]],  # nested too deep
            [[0, 2], ["x", 6]],
            [[]],
            7,
        ],
    )
    def test_load_refuses_malformed_sequence_entries(self, tmp_path, entries):
        repo = VideoRepository()
        repo.add(fake_ingest("a", 12))
        repo.save(tmp_path)
        meta_path = tmp_path / "a.json"
        meta = json.loads(meta_path.read_text())
        meta["object_sequences"]["car"] = entries
        meta_path.write_text(json.dumps(meta))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["videos"][0]["sha256"]["a.json"] = hashlib.sha256(
            meta_path.read_bytes()
        ).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="object_sequences"):
            VideoRepository.load(tmp_path)


class TestMergedFromByCidColumns:
    @given(st.integers(0, 1000), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_all_four_columns_equal_the_sorted_build(self, seed, n_parts):
        """Ties in score and parts in or out of clip-id order: the by-cid
        merge lays out exactly what sorting the rows from scratch does."""
        rng = np.random.default_rng(seed)
        parts, offset = [], 0
        for _ in range(n_parts):
            n = int(rng.integers(0, 30))
            scores = np.round(rng.random(n), 1)  # ties are the norm
            cids = offset + rng.permutation(n)
            parts.append(ClipScoreTable.from_columns("x", cids, scores))
            offset += n + 1
        if seed % 3 == 0:
            parts.reverse()  # out of clip-id order: the from-scratch path
        merged = ClipScoreTable.merged("x", parts)
        want = ClipScoreTable.from_columns(
            "x",
            np.concatenate([p.export_columns()[0] for p in parts]),
            np.concatenate([p.export_columns()[1] for p in parts]),
        )
        for got, expected in zip(merged.export_columns(), want.export_columns()):
            assert got.tolist() == expected.tolist()

    def test_overlapping_parts_are_still_refused(self):
        a = ClipScoreTable("x", [(0, 1.0), (1, 0.5)])
        with pytest.raises(StorageError):
            ClipScoreTable.merged("x", [a, a.shifted(1)])
