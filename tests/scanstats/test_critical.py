"""Critical values (Eq. 5) and their quantised memo table."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScanStatisticsError
from repro.scanstats.critical import CriticalValueTable, critical_value
from repro.scanstats.naus import naus_scan_tail


class TestCriticalValue:
    def test_definition(self):
        k = critical_value(0.01, 50, 7500, alpha=0.05)
        assert naus_scan_tail(k, 50, 7500, 0.01) <= 0.05
        assert naus_scan_tail(k - 1, 50, 7500, 0.01) > 0.05

    @given(st.floats(1e-6, 0.3), st.floats(1e-6, 0.3))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_p(self, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        assert critical_value(lo, 20, 2000) <= critical_value(hi, 20, 2000)

    def test_monotone_in_alpha(self):
        strict = critical_value(0.02, 20, 2000, alpha=0.001)
        loose = critical_value(0.02, 20, 2000, alpha=0.2)
        assert strict >= loose

    def test_degenerate_p(self):
        assert critical_value(0.0, 20, 2000) == 1
        assert critical_value(1.0, 20, 2000) == 20
        assert critical_value(1.0, 20, 2000, cap_at_window=False) == 21

    def test_cap_at_window(self):
        capped = critical_value(0.9, 5, 5000, alpha=0.001)
        assert capped <= 5
        uncapped = critical_value(0.9, 5, 5000, alpha=0.001, cap_at_window=False)
        assert uncapped >= capped

    def test_zero_alpha_rejected(self):
        with pytest.raises(ScanStatisticsError):
            critical_value(0.1, 10, 100, alpha=0.0)


class TestCriticalValueTable:
    def test_matches_direct_computation(self):
        table = CriticalValueTable(w=50, n=7500, alpha=0.05, resolution=1e-6)
        # At near-zero resolution the bucketing is exact.
        want = critical_value(0.01, 50, 7500, 0.05)
        assert table.lookup_bucket(table.bucket_of(0.01)) == want

    def test_quantisation_caches(self):
        table = CriticalValueTable(w=50, n=7500, resolution=0.05)
        a = table.lookup_bucket(table.bucket_of(0.0100))
        b = table.lookup_bucket(table.bucket_of(0.0101))  # same log-bucket
        assert a == b
        assert len(table._memo) == 1

    def test_floor_applied(self):
        table = CriticalValueTable(w=50, n=7500)
        assert table.lookup_bucket(table.bucket_of(0.0)) >= 1  # p floored, no crash

    def test_monotone_over_buckets(self):
        table = CriticalValueTable(w=50, n=7500)
        values = [
            table.lookup_bucket(table.bucket_of(p)) for p in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
        ]
        assert values == sorted(values)

    def test_invalid_config(self):
        with pytest.raises(ScanStatisticsError):
            CriticalValueTable(w=50, n=7500, resolution=0.0)

