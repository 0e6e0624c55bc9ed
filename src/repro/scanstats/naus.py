"""Approximation of the discrete scan statistic tail (paper footnote 6).

``S_w(N)`` is the maximum number of successes inside any window of ``w``
consecutive Bernoulli(p) trials among ``N`` trials.  The paper uses the
approximation of Naus (1982)

    ``P(S_w(N) >= k | p, w, L)  ≈  1 − Q2 · (Q3 / Q2)^(L − 2)``,   L = N / w,

where ``Qm = P(S_w(mw) < k)``.  We compute ``Q2`` with Naus' *exact* closed
form for two windows (validated against an exact transfer-matrix DP in the
test-suite) and extrapolate ``Q3`` with the standard *product-type*
approximation of Glaz & Naus,

    ``Q3 ≈ Q2² / Q1``,      ``Q1 = P(Bin(w, p) <= k − 1)``,

under which the paper's expression collapses to the Markov-over-blocks form
``Q1 · (Q2/Q1)^(L−1)``.  Empirically (see ``tests/scanstats``), the absolute
error of the resulting tail versus the exact DP is below ~0.013 across
``w ≤ 14`` grids and the derived critical values (Eq. 5) agree with the
exact ones in >99% of configurations — any regression here fails the build.

Edge conventions:

* ``k <= 0``      → probability 1 (every window trivially has >= 0 events);
* ``k > w``       → probability 0 (a window of ``w`` trials cannot hold more);
* ``N <= w``      → the exact binomial tail ``P(Bin(N, p) >= k)``;
* ``w < N < 2w``  → ``L`` is clamped to 2, a slightly conservative
  over-estimate of the tail (which can only raise ``k_crit``).
"""

from __future__ import annotations

from repro.errors import ScanStatisticsError
from repro.scanstats.binomial import binom_cdf, binom_pmf


def _validate(k: int, w: int, p: float) -> None:
    if w <= 0:
        raise ScanStatisticsError(f"window size w must be positive; got {w}")
    if not 0.0 <= p <= 1.0:
        raise ScanStatisticsError(f"probability p must be in [0, 1]; got {p}")
    if int(k) != k:
        raise ScanStatisticsError(f"quota k must be an integer; got {k!r}")


def naus_q1(k: int, w: int, p: float) -> float:
    """``Q1 = P(S_w(w) < k) = P(Bin(w, p) <= k − 1)`` — exact."""
    _validate(k, w, p)
    if k <= 0:
        return 0.0
    return binom_cdf(k - 1, w, p)


def naus_q2(k: int, w: int, p: float) -> float:
    """``Q2 = P(S_w(2w) < k)`` — Naus' exact two-window closed form:

    ``Q2 = F(k−1; w)² − (k−1)·b(k; w)·F(k−2; w) + w·p·b(k; w)·F(k−3; w−1)``

    with ``b``/``F`` the binomial pmf/cdf.  Verified exactly against the
    transfer-matrix DP in the test-suite.
    """
    _validate(k, w, p)
    if k <= 0:
        return 0.0
    if k > w:
        return 1.0
    b_k = binom_pmf(k, w, p)
    f_km1 = binom_cdf(k - 1, w, p)
    f_km2 = binom_cdf(k - 2, w, p)
    f_km3_w1 = binom_cdf(k - 3, w - 1, p)
    q2 = f_km1 * f_km1 - (k - 1) * b_k * f_km2 + w * p * b_k * f_km3_w1
    return min(1.0, max(0.0, q2))


def naus_q3(k: int, w: int, p: float) -> float:
    """``Q3 = P(S_w(3w) < k)`` via the product-type extrapolation
    ``Q3 ≈ Q2² / Q1`` (Glaz & Naus).

    The extrapolation treats successive window blocks as a Markov chain:
    the conditional probability of the third block staying below quota given
    the first two equals the one-block continuation ratio ``Q2 / Q1``.
    """
    _validate(k, w, p)
    if k <= 0:
        return 0.0
    if k > w:
        return 1.0
    q1 = naus_q1(k, w, p)
    if q1 <= 0.0:
        return 0.0
    q2 = naus_q2(k, w, p)
    return min(q2, q2 * q2 / q1)


def naus_scan_tail(k: int, w: int, n: int, p: float) -> float:
    """``P(S_w(N) >= k | p, w, L) ≈ 1 − Q2 (Q3/Q2)^(L−2)``, ``L = N/w``.

    This is the probability the paper's Eq. 5 compares against the
    significance level ``α`` when deriving critical values.
    """
    _validate(k, w, p)
    if n < 1:
        raise ScanStatisticsError(f"trial count N must be >= 1; got {n}")
    if k <= 0:
        return 1.0
    if k > w or k > n:
        return 0.0
    if n <= w:
        # Only windows of length <= N exist; the scan maximum over a single
        # short stretch is just the binomial tail.
        return max(0.0, min(1.0, 1.0 - binom_cdf(k - 1, n, p)))
    q2 = naus_q2(k, w, p)
    q3 = naus_q3(k, w, p)
    if q2 <= 0.0:
        return 1.0
    ratio = min(1.0, q3 / q2)
    big_l = max(2.0, n / w)
    survival = q2 * ratio ** (big_l - 2.0)
    return min(1.0, max(0.0, 1.0 - survival))
