"""The scalar Eq. 5 search — the oracle for
:mod:`repro.scanstats.critical`.

``_critical_value_cached`` is the binary search over ``k`` that shipped
before the critical values became one NumPy kernel: one
:func:`~repro.scanstats.naus.naus_scan_tail` call per probed ``k``,
memoised on exact arguments.  :func:`bucket_row` is what a quantised
table held for a bucket, written out as the table wrote it, so the
shipped :class:`~repro.scanstats.critical.CriticalValueTable` can be held
to it row for row.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.scanstats.naus import naus_scan_tail


@lru_cache(maxsize=65536)
def _critical_value_cached(p: float, w: int, n: int, alpha: float) -> int:
    # P(S_w(N) >= k) is non-increasing in k, so binary search applies.
    lo, hi = 1, w + 1  # hi = w + 1 encodes "no k <= w is significant".
    while lo < hi:
        mid = (lo + hi) // 2
        if naus_scan_tail(mid, w, n, p) <= alpha:
            hi = mid
        else:
            lo = mid + 1
    return lo


def critical_value(p: float, w: int, n: int, alpha: float, cap_at_window: bool = True) -> int:
    """Eq. 5 for ``0 <= p <= 1``, with the shipped function's degenerate
    branches and cap."""
    if p == 0.0:
        return 1
    if p == 1.0:
        return w + (0 if cap_at_window else 1)
    k = _critical_value_cached(float(p), int(w), int(n), float(alpha))
    return min(k, w) if cap_at_window else k


def bucket_row(
    bucket: int, w: int, n: int, alpha: float,
    resolution: float = 0.05, p_floor: float = 1e-9,
) -> tuple[int, float, float]:
    """``(k_crit, lo, hi)`` of one quantised bucket: the capped quota at
    ``10^(bucket·resolution)`` and the open interval of rates guaranteed to
    quantise to the bucket (empty where it touches ``p_floor`` or 1)."""
    k = critical_value(min(1.0, 10.0 ** (bucket * resolution)), w, n, alpha)
    lo = 10.0 ** ((bucket - 0.5) * resolution) * (1.0 + 1e-12)
    hi = 10.0 ** ((bucket + 0.5) * resolution) * (1.0 - 1e-12)
    if lo <= p_floor or hi >= 1.0 or not lo < hi:
        return (k, math.inf, -math.inf)
    return (k, lo, hi)
