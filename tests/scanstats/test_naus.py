"""The Naus approximation validated against exact and Monte-Carlo
references — the safety net DESIGN.md promises."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScanStatisticsError
from repro.scanstats.binomial import binom_cdf
from repro.scanstats.exact import exact_scan_tail
from tests.reference.montecarlo import monte_carlo_scan_tail
from repro.scanstats.naus import naus_q1, naus_q2, naus_q3, naus_scan_tail


class TestQ2Exactness:
    """Q2 has a closed form that must match the exact DP to the digit."""

    @pytest.mark.parametrize(
        "k,w,p",
        [
            (2, 6, 0.01), (3, 8, 0.05), (5, 10, 0.1),
            (4, 12, 0.08), (6, 15, 0.2), (2, 10, 0.02),
            (1, 5, 0.3), (8, 8, 0.5),
        ],
    )
    def test_matches_exact_dp(self, k, w, p):
        expected = 1.0 - exact_scan_tail(k, w, 2 * w, p)
        assert naus_q2(k, w, p) == pytest.approx(expected, abs=1e-9)

    @given(st.integers(1, 10), st.integers(2, 12), st.floats(0.005, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_dp_property(self, k, w, p):
        expected = 1.0 - exact_scan_tail(k, w, 2 * w, p)
        assert naus_q2(k, w, p) == pytest.approx(expected, abs=1e-9)


class TestQ3:
    @given(st.integers(1, 10), st.integers(2, 12), st.floats(0.005, 0.4))
    @settings(max_examples=30, deadline=None)
    def test_product_extrapolation_close_to_exact(self, k, w, p):
        approx = naus_q3(k, w, p)
        exact = 1.0 - exact_scan_tail(k, w, 3 * w, p)
        assert approx == pytest.approx(exact, abs=0.02)

    @given(st.integers(1, 10), st.integers(2, 12), st.floats(0.005, 0.4))
    @settings(max_examples=30, deadline=None)
    def test_q_ordering(self, k, w, p):
        # More trials can only make the quota likelier: Q1 >= Q2 >= Q3.
        assert naus_q1(k, w, p) + 1e-12 >= naus_q2(k, w, p)
        assert naus_q2(k, w, p) + 1e-12 >= naus_q3(k, w, p)


class TestTail:
    @pytest.mark.parametrize(
        "k,w,n,p",
        [
            (3, 8, 80, 0.05), (5, 10, 200, 0.1), (4, 12, 120, 0.08),
            (6, 15, 150, 0.2), (2, 6, 60, 0.01), (4, 10, 30, 0.1),
        ],
    )
    def test_close_to_exact(self, k, w, n, p):
        assert naus_scan_tail(k, w, n, p) == pytest.approx(
            exact_scan_tail(k, w, n, p), abs=0.02
        )

    def test_close_to_monte_carlo_large_window(self):
        # Windows too large for the exact DP: cross-check by simulation.
        k, w, n, p = 8, 40, 800, 0.05
        mc = monte_carlo_scan_tail(k, w, n, p, replications=30_000, seed=1)
        assert naus_scan_tail(k, w, n, p) == pytest.approx(mc, abs=0.03)

    def test_edge_conventions(self):
        assert naus_scan_tail(0, 10, 100, 0.1) == 1.0
        assert naus_scan_tail(11, 10, 100, 0.1) == 0.0
        assert naus_scan_tail(5, 10, 4, 0.1) == 0.0  # k > N
        # N <= w: plain binomial tail
        assert naus_scan_tail(1, 10, 5, 0.1) == pytest.approx(
            1 - 0.9**5, abs=1e-12
        )

    @given(st.integers(1, 20), st.integers(1, 25), st.floats(0.01, 0.99))
    def test_a_stream_no_longer_than_the_window_is_the_binomial_tail(self, k, n, p):
        want = 0.0 if k > n else 1.0 - binom_cdf(k - 1, n, p)
        assert naus_scan_tail(k, 25, n, p) == pytest.approx(want, abs=1e-12)

    @given(st.integers(1, 10), st.integers(2, 12), st.floats(0.01, 0.4))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_k(self, k, w, p):
        n = 10 * w
        assert naus_scan_tail(k, w, n, p) + 1e-12 >= naus_scan_tail(
            k + 1, w, n, p
        )

    @given(st.integers(2, 8), st.integers(3, 12), st.floats(0.01, 0.3))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_n(self, k, w, p):
        shorter = naus_scan_tail(k, w, 5 * w, p)
        longer = naus_scan_tail(k, w, 20 * w, p)
        assert longer + 1e-12 >= shorter

    def test_invalid_args(self):
        with pytest.raises(ScanStatisticsError):
            naus_scan_tail(2, 0, 10, 0.1)
        with pytest.raises(ScanStatisticsError):
            naus_scan_tail(2, 5, 0, 0.1)
        with pytest.raises(ScanStatisticsError):
            naus_scan_tail(2, 5, 10, 1.5)
