"""Stable binomial helpers underlying the Naus machinery."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ScanStatisticsError
from repro.scanstats.binomial import binom_cdf, binom_pmf, log_binom_pmf


class TestPmf:
    def test_known_values(self):
        assert binom_pmf(0, 4, 0.5) == pytest.approx(1 / 16)
        assert binom_pmf(2, 4, 0.5) == pytest.approx(6 / 16)

    def test_out_of_support(self):
        assert binom_pmf(-1, 4, 0.5) == 0.0
        assert binom_pmf(5, 4, 0.5) == 0.0

    def test_degenerate_p(self):
        assert binom_pmf(0, 5, 0.0) == 1.0
        assert binom_pmf(1, 5, 0.0) == 0.0
        assert binom_pmf(5, 5, 1.0) == 1.0

    def test_no_underflow_for_tiny_p(self):
        value = binom_pmf(3, 50, 1e-6)
        assert 0.0 < value < 1e-12
        assert math.isfinite(log_binom_pmf(3, 50, 1e-6))

    @given(st.integers(0, 30), st.floats(0.01, 0.99))
    def test_sums_to_one(self, n, p):
        total = sum(binom_pmf(k, n, p) for k in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_invalid_args(self):
        with pytest.raises(ScanStatisticsError):
            binom_pmf(1, -1, 0.5)
        with pytest.raises(ScanStatisticsError):
            binom_pmf(1, 4, 1.5)


class TestCdf:
    def test_bounds(self):
        assert binom_cdf(-1, 10, 0.3) == 0.0
        assert binom_cdf(10, 10, 0.3) == 1.0
        assert binom_cdf(25, 10, 0.3) == 1.0

    @given(st.integers(1, 25), st.floats(0.01, 0.99))
    def test_monotone_in_k(self, n, p):
        values = [binom_cdf(k, n, p) for k in range(-1, n + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    @given(st.integers(0, 20), st.integers(1, 25), st.floats(0.01, 0.99))
    def test_cdf_matches_pmf_sum(self, k, n, p):
        expected = sum(binom_pmf(i, n, p) for i in range(0, min(k, n) + 1))
        assert binom_cdf(k, n, p) == pytest.approx(expected, abs=1e-9)
