"""Critical values for scan statistics — the paper's Eq. 5.

``critical_value(p, w, n, alpha)`` returns the smallest quota ``k_crit``
such that ``P(S_w(N) >= k_crit | p, w, L) <= alpha``: seeing at least
``k_crit`` positive predictions inside one window of ``w`` occurrence units
is *statistically significant* at level ``alpha`` under the background
probability ``p``, and the clip is declared to contain the predicate
(Eqs. 1–2).

SVAQD recomputes critical values every time its background-probability
estimates move (Algorithm 3, line 9), so the search is memoised both through
an ``lru_cache`` on exact arguments and through :class:`CriticalValueTable`,
which additionally quantises the probability axis so that microscopic
estimator jitter does not defeat the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ScanStatisticsError
from repro.scanstats.naus import naus_scan_tail
from repro.utils.validation import require_positive_int, require_probability


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
    k = _critical_value_cached(float(p), int(w), int(n), float(alpha))
    if cap_at_window:
        k = min(k, w)
    return k


@dataclass
class CriticalValueTable:
    """Quantised memo of critical values for one predicate.

    SVAQD updates its background-probability estimate after every positive
    clip; successive estimates differ by tiny amounts that would all miss an
    exact-argument cache.  This table rounds ``log10(p)`` to
    ``resolution``-sized buckets first — within a bucket the critical value
    is constant for all practical purposes — and only then consults the
    shared cache.

    Attributes mirror Eq. 5: window ``w`` (occurrence units per clip),
    horizon ``n`` (total OUs the scan spans) and ``alpha``.
    """

    w: int
    n: int
    alpha: float = 0.05
    resolution: float = 0.05
    cap_at_window: bool = True
    p_floor: float = 1e-9
    #: Optional bursty-noise prior (footnote 7): when > 1, quotas come from
    #: the Markov-corrected computation instead of the i.i.d. Eq. 5 —
    #: exact FMCE for small windows, declumping for large ones.  See
    #: :func:`repro.scanstats.markov.adjusted_critical_value`.
    burstiness: float | None = None
    _memo: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        require_positive_int(self.w, "w")
        require_positive_int(self.n, "n")
        require_probability(self.alpha, "alpha")
        if self.resolution <= 0:
            raise ScanStatisticsError("resolution must be positive")

    def bucket_of(self, p: float) -> int:
        """The quantised-probability bucket ``p`` falls into."""
        p = min(1.0, max(self.p_floor, float(p)))
        return int(round(math.log10(p) / self.resolution))

    def bucket_bounds(self, bucket: int) -> tuple[float, float]:
        """Open probability interval guaranteed to quantise to ``bucket``.

        Returns ``(lo, hi)`` such that every ``p`` with ``lo < p < hi``
        satisfies ``bucket_of(p) == bucket``: the incremental refresh
        skips the ``log10``/rounding pass entirely while an estimate stays
        strictly inside its last bucket.  The bounds shave a ``1e-12``
        relative margin off the exact half-bucket edges — orders of
        magnitude wider than ``log10``'s rounding error, so the guarantee
        is airtight, while the margin itself is far below the quantisation
        the table already applies.  Buckets whose edges touch the clamp
        region (``p_floor`` / ``1.0``) return the empty interval
        ``(inf, -inf)`` so callers always recompute there.
        """
        lo = 10.0 ** ((bucket - 0.5) * self.resolution) * (1.0 + 1e-12)
        hi = 10.0 ** ((bucket + 0.5) * self.resolution) * (1.0 - 1e-12)
        if lo <= self.p_floor or hi >= 1.0 or not lo < hi:
            return (math.inf, -math.inf)
        return (lo, hi)

    def lookup_bucket(self, bucket: int) -> int:
        """Critical value for one quantised bucket (memoised)."""
        hit = self._memo.get(bucket)
        if hit is not None:
            return hit
        p_bucket = min(1.0, 10.0 ** (bucket * self.resolution))
        if self.burstiness is not None and self.burstiness > 1.0:
            from repro.scanstats.markov import adjusted_critical_value

            value = adjusted_critical_value(
                p_bucket, self.w, self.n, self.alpha, self.burstiness,
                cap_at_window=self.cap_at_window,
            )
        else:
            value = critical_value(
                p_bucket, self.w, self.n, self.alpha,
                cap_at_window=self.cap_at_window,
            )
        self._memo[bucket] = value
        return value

    def lookup(self, p: float) -> int:
        """Critical value for background probability ``p`` (quantised)."""
        return self.lookup_bucket(self.bucket_of(p))
