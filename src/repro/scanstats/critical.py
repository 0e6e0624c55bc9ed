"""Critical values for scan statistics — the paper's Eq. 5.

``critical_value(p, w, n, alpha)`` returns the smallest quota ``k_crit``
such that ``P(S_w(N) >= k_crit | p, w, L) <= alpha``: seeing at least
``k_crit`` positive predictions inside one window of ``w`` occurrence units
is *statistically significant* at level ``alpha`` under the background
probability ``p``, and the clip is declared to contain the predicate
(Eqs. 1–2).

Every value comes from one NumPy kernel, :func:`_search`: the definition's
binary search over ``k``, run for many ``p`` at once on the tails of
:func:`~repro.scanstats.naus.naus_scan_tails`, except that a test whose
tail lies within ``TIE`` (relative) of ``alpha`` is made on the scalar
:func:`~repro.scanstats.naus.naus_scan_tail` — so each value is the scalar
search's (``tests/reference/critical_scalar.py``, the tests' oracle).
``critical_value`` is its one-``p`` case, memoised.

SVAQD re-derives a quota each time a background-probability estimate
leaves its log10 bucket (Algorithm 3, line 9).  It reads the quota from a
:class:`CriticalValueTable`, one per ``(w, n, alpha)`` for the whole
process (:func:`critical_table`), every bucket of which is filled in one
:func:`_search` on first use.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.errors import ScanStatisticsError
from repro.scanstats.naus import naus_scan_tail, naus_scan_tails
from repro.utils.validation import require_positive_int, require_probability

#: The quantised probability axis: buckets ``RESOLUTION`` wide in
#: ``log10(p)``, from ``P_FLOOR`` up to 1.
RESOLUTION = 0.05
P_FLOOR = 1e-9
#: The bucket ``P_FLOOR`` falls in, the table's lowest.
FLOOR = round(math.log10(P_FLOOR) / RESOLUTION)
#: How close to ``alpha`` (relative) a tail may lie before its test is made
#: on the scalar tail: orders of magnitude above the kernel's rounding.
TIE = 1e-9

#: A table row: ``(k_crit, lo, hi)``.
Row = tuple[int, float, float]


def _search(ps: Sequence[float], w: int, n: int, alpha: float) -> list[int]:
    """Eq. 5, uncapped, for each ``p`` of ``ps`` (``0 < p < 1``)."""
    tails = naus_scan_tails(ps, w, n)
    holds = tails <= alpha
    for row, j in zip(*np.nonzero(np.abs(tails - alpha) <= TIE * alpha)):  # a tie
        holds[row, j] = naus_scan_tail(int(j) + 1, w, n, ps[row]) <= alpha
    # P(S_w(N) >= k) is non-increasing in k, so the definition's binary
    # search over k = 1..w applies (w + 1: no k <= w is significant).
    return [
        bisect_left(range(w + 1), True, 1, w + 1, key=lambda k: row[k - 1])
        for row in holds.tolist()
    ]


@lru_cache(maxsize=65536)
def _critical_value_cached(p: float, w: int, n: int, alpha: float) -> int:
    return _search([p], w, n, alpha)[0]


def critical_value(
    p: float,
    w: int,
    n: int,
    alpha: float = 0.05,
    *,
    cap_at_window: bool = True,
) -> int:
    """Smallest ``k`` with ``P(S_w(N) >= k | p, w, N/w) <= alpha`` (Eq. 5).

    When no ``k <= w`` reaches significance (very large backgrounds), the
    honest answer is ``w + 1`` — the predicate can never fire.  By default
    we cap at ``w`` so a clip whose *every* occurrence unit is positive is
    always accepted; pass ``cap_at_window=False`` for the uncapped value.
    """
    p = require_probability(p, "background probability p")
    w = require_positive_int(w, "window size w")
    n = require_positive_int(n, "horizon N")
    alpha = require_probability(alpha, "significance level alpha")
    if alpha <= 0.0:
        raise ScanStatisticsError("alpha must be > 0 for a finite quota")
    # Exact degenerate-probability branches on purpose (not tolerance).
    if p == 0.0:
        return 1  # any event at all is significant
    if p == 1.0:
        return w + (0 if cap_at_window else 1)
    k = _critical_value_cached(p, w, n, alpha)
    return min(k, w) if cap_at_window else k


class CriticalValueTable(dict[int, Row]):
    """Eq. 5 over the quantised probability axis, for one ``(w, n, alpha)``.

    Bucket ``round(log10(p) / RESOLUTION)`` maps to ``(k_crit, lo, hi)``:
    the quota, capped at ``w``, at the bucket's probability
    ``10^(bucket·RESOLUTION)`` — within a bucket it is constant for all
    practical purposes, so estimator jitter does not move it — and the open
    interval of rates guaranteed to fall in the bucket, so a rate strictly
    inside keeps its quota without a ``log10``.  The interval shaves a
    ``1e-12`` relative margin off the exact half-bucket edges (far wider
    than ``log10``'s rounding error); buckets touching ``P_FLOOR`` or 1
    hold the empty ``(inf, -inf)``, so a rate there is looked up each time.

    The first read fills every bucket from ``P_FLOOR`` to 1 in one
    :func:`_search`, merged in as one dict update: the fill is idempotent
    and a reader sees no half-filled table, so threads read without a lock.
    A bucket below the floor reads the floor's.  With ``burstiness > 1``
    (the bursty-noise prior of footnote 7) a bucket is filled when first
    read instead, from :func:`repro.scanstats.markov.adjusted_critical_value`
    — exact FMCE for small windows, declumping for large ones.  Share
    tables through :func:`critical_table`.
    """

    def __init__(
        self, w: int, n: int, alpha: float = 0.05, burstiness: float | None = None
    ) -> None:
        critical_value(0.0, w, n, alpha)  # validates the arguments
        self.w, self.n, self.alpha, self.burstiness = w, n, alpha, burstiness

    def _row(self, bucket: int, k: int) -> tuple[int, Row]:
        lo = 10.0 ** ((bucket - 0.5) * RESOLUTION) * (1.0 + 1e-12)
        hi = 10.0 ** ((bucket + 0.5) * RESOLUTION) * (1.0 - 1e-12)
        if lo <= P_FLOOR or hi >= 1.0 or not lo < hi:
            lo, hi = math.inf, -math.inf
        return bucket, (min(k, self.w), lo, hi)

    def __missing__(self, bucket: int) -> Row:
        if bucket < FLOOR:
            return self[FLOOR]
        if self.burstiness is not None and self.burstiness > 1.0:
            from repro.scanstats.markov import adjusted_critical_value

            buckets, p = [bucket], 10.0 ** (bucket * RESOLUTION)
            ks = [adjusted_critical_value(p, self.w, self.n, self.alpha, self.burstiness)]
        else:
            buckets = [*range(FLOOR, 1)]  # p = 1 at bucket 0: k = w
            ps = [10.0 ** (b * RESOLUTION) for b in buckets[:-1]]
            ks = [*_search(ps, self.w, self.n, self.alpha), self.w]
        self.update(dict(map(self._row, buckets, ks)))
        return self[min(bucket, 0)]

    def lookup(self, p: float) -> int:
        """Critical value for background probability ``p``, clamped to
        ``[P_FLOOR, 1]`` and quantised."""
        return self[round(math.log10(min(1.0, max(P_FLOOR, p))) / RESOLUTION)][0]


#: ``critical_table(w, n, alpha, burstiness)``: the process's table for
#: these arguments, one per argument tuple.
critical_table = lru_cache(maxsize=None)(CriticalValueTable)


@dataclass(slots=True)
class Quota:
    """One label's Eq. 5 quota in force: ``k_crit`` read from ``table`` for
    the bucket its rate last fell in, and that bucket's rate interval
    ``(lo, hi)`` — empty until the first read.  The rate bank's fold sets
    all three (:meth:`~repro.scanstats.kernel.KernelRateBank.fold_row`)."""

    table: CriticalValueTable
    k_crit: int = 0
    lo: float = math.inf
    hi: float = -math.inf
