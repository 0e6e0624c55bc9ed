"""The exact transfer-matrix scan tail (the validator itself gets
validated against Monte Carlo and hand computations)."""

from __future__ import annotations

import pytest

from repro.errors import ScanStatisticsError
from repro.scanstats.exact import MAX_EXACT_WINDOW, exact_scan_tail
from tests.reference.montecarlo import monte_carlo_scan_tail


class TestHandComputable:
    def test_w1(self):
        # S_1(N) >= 1 iff any success occurs.
        assert exact_scan_tail(1, 1, 3, 0.5) == pytest.approx(1 - 0.5**3)

    def test_window_equals_n(self):
        # One window: plain binomial tail.
        # P(Bin(3, .5) >= 2) = 4/8
        assert exact_scan_tail(2, 3, 3, 0.5) == pytest.approx(0.5)

    def test_two_in_two_of_three(self):
        # Windows (1,2), (2,3); success prob p each trial.
        # P = P(x1x2) + P(x2x3) - P(x1x2x3) with xi iid
        p = 0.3
        expected = 2 * p * p - p**3
        assert exact_scan_tail(2, 2, 3, p) == pytest.approx(expected)

    def test_degenerate_probabilities(self):
        assert exact_scan_tail(1, 3, 10, 0.0) == 0.0
        assert exact_scan_tail(3, 3, 10, 1.0) == 1.0


class TestAgainstMonteCarlo:
    @pytest.mark.parametrize(
        "k,w,n,p",
        [(3, 6, 60, 0.1), (2, 8, 40, 0.05), (5, 10, 100, 0.15)],
    )
    def test_close(self, k, w, n, p):
        mc = monte_carlo_scan_tail(k, w, n, p, replications=40_000, seed=2)
        assert exact_scan_tail(k, w, n, p) == pytest.approx(mc, abs=0.01)


class TestValidation:
    def test_window_cap(self):
        with pytest.raises(ScanStatisticsError):
            exact_scan_tail(2, MAX_EXACT_WINDOW + 1, 100, 0.1)

    def test_requires_exactly_one_model(self):
        with pytest.raises(ScanStatisticsError):
            exact_scan_tail(2, 5, 10)  # neither p nor transition
        with pytest.raises(ScanStatisticsError):
            exact_scan_tail(2, 5, 10, 0.1, transition=lambda _l: 0.1)

    def test_edge_quotas(self):
        assert exact_scan_tail(0, 5, 10, 0.1) == 1.0
        assert exact_scan_tail(6, 5, 10, 0.1) == 0.0


class TestMarkovTransition:
    def test_iid_equivalence(self):
        iid = exact_scan_tail(3, 6, 50, 0.1)
        markov = exact_scan_tail(
            3, 6, 50, transition=lambda _last: 0.1, initial_success=0.1
        )
        assert markov == pytest.approx(iid, abs=1e-12)

    def test_positive_correlation_raises_tail(self):
        # Same marginal rate, clumpier events -> clusters more likely.
        p = 0.1
        p11 = 0.5
        p01 = p * (1 - p11) / (1 - p)
        bursty = exact_scan_tail(
            3, 6, 60,
            transition=lambda last: p11 if last else p01,
            initial_success=p,
        )
        iid = exact_scan_tail(3, 6, 60, p)
        assert bursty > iid
