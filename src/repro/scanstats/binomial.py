"""Numerically stable binomial probability helpers.

The Naus approximation is built entirely from the binomial pmf
``b(k; n, p)`` and cdf ``F(k; n, p)``.  Both are computed in log space via
``math.lgamma`` so that windows of hundreds of frames with very small
background probabilities (p₀ ~ 1e−6, the x-axis of the paper's Figure 2)
do not underflow.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.errors import ScanStatisticsError


def log_binom_pmf(k: int, n: int, p: float) -> float:
    """``log b(k; n, p)`` with the conventions ``b(k)=0`` outside ``[0, n]``.

    Returns ``-inf`` for impossible outcomes, including ``k > 0`` when
    ``p == 0`` and ``k < n`` when ``p == 1``.
    """
    if n < 0:
        raise ScanStatisticsError(f"binomial n must be >= 0; got {n}")
    if not 0.0 <= p <= 1.0:
        raise ScanStatisticsError(f"binomial p must be in [0, 1]; got {p}")
    if k < 0 or k > n:
        return -math.inf
    # Exact degenerate-distribution branches on purpose (not tolerance).
    if p == 0.0:
        return 0.0 if k == 0 else -math.inf
    if p == 1.0:
        return 0.0 if k == n else -math.inf
    log_comb = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )
    return log_comb + k * math.log(p) + (n - k) * math.log1p(-p)


def binom_pmf(k: int, n: int, p: float) -> float:
    """``b(k; n, p) = C(n, k) p^k (1-p)^(n-k)``."""
    log_value = log_binom_pmf(k, n, p)
    return 0.0 if log_value == -math.inf else math.exp(log_value)


@lru_cache(maxsize=65536)
def _binom_cdf_cached(k: int, n: int, p: float) -> float:
    # Sum the pmf from the lighter tail for accuracy, then complement.
    if k >= n:
        return 1.0
    if k < 0:
        return 0.0
    mean = n * p
    if k <= mean:
        return math.fsum(binom_pmf(i, n, p) for i in range(0, k + 1))
    upper = math.fsum(binom_pmf(i, n, p) for i in range(k + 1, n + 1))
    return max(0.0, min(1.0, 1.0 - upper))


def binom_cdf(k: int, n: int, p: float) -> float:
    """``F(k; n, p) = P(Bin(n, p) <= k)``; ``0`` for ``k < 0``, ``1`` for
    ``k >= n``."""
    if n < 0:
        raise ScanStatisticsError(f"binomial n must be >= 0; got {n}")
    if not 0.0 <= p <= 1.0:
        raise ScanStatisticsError(f"binomial p must be in [0, 1]; got {p}")
    return _binom_cdf_cached(int(k), int(n), float(p))
