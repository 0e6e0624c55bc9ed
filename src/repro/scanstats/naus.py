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

:func:`naus_scan_tails` is the tail for every ``k`` and many ``p`` at once.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ScanStatisticsError
from repro.scanstats.binomial import binom_cdf, binom_pmf


def naus_scan_tail(k: int, w: int, n: int, p: float) -> float:
    """``P(S_w(N) >= k | p, w, L) ≈ 1 − Q2 (Q3/Q2)^(L−2)``, ``L = N/w``.

    This is the probability the paper's Eq. 5 compares against the
    significance level ``α`` when deriving critical values.  ``Q1 =
    P(Bin(w, p) <= k − 1)`` is exact; ``Q2 = P(S_w(2w) < k)`` is Naus'
    exact two-window closed form

    ``Q2 = F(k−1; w)² − (k−1)·b(k; w)·F(k−2; w) + w·p·b(k; w)·F(k−3; w−1)``

    with ``b``/``F`` the binomial pmf/cdf (verified against the
    transfer-matrix DP in the test-suite); ``Q3 = P(S_w(3w) < k) ≈ Q2² /
    Q1``, the product-type extrapolation of Glaz & Naus, which treats
    successive window blocks as a Markov chain (the third block stays below
    quota given the first two with the one-block continuation ratio
    ``Q2 / Q1``).  ``tests/reference/naus_scalar.py`` keeps the three as
    functions.
    """
    if w <= 0 or n < 1 or not 0.0 <= p <= 1.0 or int(k) != k:
        raise ScanStatisticsError(
            f"need w >= 1, N >= 1, 0 <= p <= 1 and an integer k; got {k!r}, {w}, {n}, {p}"
        )
    if k <= 0:
        return 1.0
    if k > w or k > n:
        return 0.0
    if n <= w:
        # Only windows of length <= N exist; the scan maximum over a single
        # short stretch is just the binomial tail.
        return max(0.0, min(1.0, 1.0 - binom_cdf(k - 1, n, p)))
    q1, b_k = binom_cdf(k - 1, w, p), binom_pmf(k, w, p)
    q2 = min(1.0, max(
        0.0, q1 * q1 - (k - 1) * b_k * binom_cdf(k - 2, w, p)
        + w * p * b_k * binom_cdf(k - 3, w - 1, p)
    ))
    q3 = 0.0 if q1 <= 0.0 else min(q2, q2 * q2 / q1)
    if q2 <= 0.0:
        return 1.0
    return min(1.0, max(0.0, 1.0 - q2 * min(1.0, q3 / q2) ** (max(2.0, n / w) - 2.0)))


def naus_scan_tails(ps: Sequence[float], w: int, n: int) -> np.ndarray:
    """:func:`naus_scan_tail` for ``k = 1..w`` (columns) and each ``p`` of
    ``ps`` (rows, ``0 < p < 1``), in the scalar's operations and order on
    NumPy floats: an entry differs from the scalar's by rounding only."""
    k, p = np.arange(1, w + 1), np.asarray(ps)[:, None]
    lgammas = np.array([math.lgamma(j + 1) for j in range(w + 1)])

    def binomial(m: int) -> tuple[np.ndarray, np.ndarray]:
        """``b(j; m, p)`` for ``j = 0..m`` and ``F(j; m, p)`` for ``j =
        -3..m`` (column ``j + 3``; 0 below 0, 1 at ``m``): ``log_binom_pmf``'s
        terms in its order, and the cdf summed from its lighter tail, the
        heavier one complemented, as ``binom_cdf`` sums it."""
        j, lg = np.arange(m + 1), lgammas[: m + 1]
        pmf = np.exp(lg[m] - lg - lg[::-1] + j * np.log(p) + (m - j) * np.log1p(-p))
        above = np.cumsum(pmf[:, :0:-1], axis=1)[:, ::-1]  # Σ_{i > j} b(i)
        cdf = np.where(
            j[:m] <= m * p, np.cumsum(pmf[:, :m], axis=1), np.clip(1.0 - above, 0.0, 1.0)
        )
        return pmf, np.concatenate([np.zeros((len(p), 3)), cdf, np.ones((len(p), 1))], axis=1)

    if n <= w:
        return np.clip(1.0 - binomial(n)[1][:, np.minimum(k - 1, n) + 3], 0.0, 1.0)
    b, f = binomial(w)
    q1, b_k = f[:, k + 2], b[:, k]  # F(k − 1; w), b(k; w)
    q2 = np.clip(  # with F(k − 2; w) and F(k − 3; w − 1)
        q1 * q1 - (k - 1) * b_k * f[:, k + 1] + w * p * b_k * binomial(w - 1)[1][:, k], 0, 1
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        q3 = np.where(q1 <= 0.0, 0.0, np.minimum(q2, q2 * q2 / q1))
        survival = q2 * np.minimum(1.0, q3 / q2) ** (max(2.0, n / w) - 2.0)
    return np.where(q2 <= 0.0, 1.0, np.clip(1.0 - survival, 0.0, 1.0))
