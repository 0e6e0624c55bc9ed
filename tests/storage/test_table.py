"""Clip score tables: ordering, metered access paths, merging."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.access import AccessStats, LatencyModel
from repro.storage.table import ClipScoreTable


def table() -> ClipScoreTable:
    return ClipScoreTable("faucet", [(0, 1.0), (1, 5.0), (2, 3.0), (3, 5.0)])


class TestOrdering:
    def test_sorted_rows_descending(self):
        t = table()
        scores = [t.sorted_row(i)[1] for i in range(len(t))]
        assert scores == sorted(scores, reverse=True)

    def test_tie_break_by_clip_id(self):
        t = table()
        assert t.sorted_row(0) == (1, 5.0)
        assert t.sorted_row(1) == (3, 5.0)

    def test_reverse_rows_ascending(self):
        t = table()
        assert t.reverse_row(0) == (0, 1.0)
        assert t.reverse_row(len(t) - 1) == (1, 5.0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.floats(0, 10)),
            max_size=30,
            unique_by=lambda r: r[0],
        )
    )
    def test_sorted_and_reverse_are_mirrors(self, rows):
        t = ClipScoreTable("x", rows)
        n = len(t)
        for i in range(n):
            assert t.sorted_row(i) == t.reverse_row(n - 1 - i)


class TestAccess:
    def test_random_access(self):
        t = table()
        assert t.random_access(2) == 3.0

    def test_unknown_cid(self):
        with pytest.raises(StorageError):
            table().random_access(99)

    def test_out_of_range_rows(self):
        t = table()
        with pytest.raises(StorageError):
            t.sorted_row(4)
        with pytest.raises(StorageError):
            t.reverse_row(-1)

    def test_metering(self):
        t = table()
        stats = AccessStats()
        t.sorted_row(0, stats)
        t.sorted_row(1, stats)
        t.reverse_row(0, stats)
        t.random_access(0, stats)
        assert stats.sorted_accesses == 2
        assert stats.reverse_accesses == 1
        assert stats.random_accesses == 1
        assert stats.sequential_accesses == 3

    def test_unmetered_access_free(self):
        t = table()
        t.sorted_row(0)
        # no stats object: nothing to assert beyond not crashing

    def test_latency_model(self):
        stats = AccessStats(latency=LatencyModel(sequential_ms=1.0, random_ms=10.0))
        stats.charge_sorted(3)
        stats.charge_random(2)
        assert stats.simulated_ms == pytest.approx(23.0)

    def test_merged_stats(self):
        a = AccessStats(sorted_accesses=1, random_accesses=2)
        b = AccessStats(reverse_accesses=3)
        merged = a.merged_with(b)
        assert (merged.sequential_accesses, merged.random_accesses) == (4, 2)


class TestConstructionAndMaintenance:
    def test_duplicate_cids_rejected(self):
        with pytest.raises(StorageError):
            ClipScoreTable("x", [(0, 1.0), (0, 2.0)])

    def test_empty_table(self):
        t = ClipScoreTable("x", [])
        assert len(t) == 0

    def test_contains(self):
        t = table()
        assert 2 in t and 9 not in t

    def test_shifted(self):
        t = table().shifted(100)
        assert t.random_access(102) == 3.0
        assert 2 not in t

    def test_merged(self):
        merged = ClipScoreTable.merged(
            "x", [table(), table().shifted(10)]
        )
        assert len(merged) == 8
        assert merged.sorted_row(0)[1] == 5.0
