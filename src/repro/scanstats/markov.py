"""Scan statistics on Markov-dependent Bernoulli trials (footnote 7).

The paper's analysis assumes i.i.d. trials but notes (footnote 7) that the
finite Markov chain embedding (FMCE) technique of Fu & Johnson extends the
critical-value machinery to trials with first-order Markov dependence —
exactly the temporal correlation real detector errors exhibit (a false
positive on one frame makes one on the next frame likelier).

We realise that extension on top of the exact transfer-matrix engine in
:mod:`repro.scanstats.exact`: the embedding state is the window bitmask and
the chain's transition function supplies ``P(next = 1 | last outcome)``.
For the window sizes used in validation and the ablation benchmark this is
an *exact* computation rather than an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ScanStatisticsError
from repro.scanstats.exact import exact_scan_tail
from repro.utils.validation import require_probability


@dataclass(frozen=True)
class MarkovChainSpec:
    """A two-state Markov chain over {no-event, event}.

    ``p01 = P(event | previous no-event)`` and ``p11 = P(event | previous
    event)``.  ``p11 > p01`` models positively correlated (bursty) detector
    firings; ``p11 == p01`` degenerates to i.i.d. trials.
    """

    p01: float
    p11: float

    def __post_init__(self) -> None:
        require_probability(self.p01, "p01")
        require_probability(self.p11, "p11")

    @property
    def stationary_p(self) -> float:
        """Long-run probability of an event, ``π₁ = p01 / (p01 + p10)``."""
        p10 = 1.0 - self.p11
        total = self.p01 + p10
        # Exact absorbing-chain sentinel on purpose (not tolerance).
        if total == 0.0:
            # p01 = 0 and p11 = 1: both states absorbing; convention π₁ = 0
            # (a stream started in state 0 never produces an event).
            return 0.0
        return self.p01 / total

    @classmethod
    def from_marginal(cls, p: float, burstiness: float) -> "MarkovChainSpec":
        """Build a chain with stationary event probability ``p`` and a given
        ``burstiness = p11 / p`` (1 = i.i.d.; larger = clumpier events).

        Solves ``π₁ = p`` for ``p01`` given ``p11 = min(burstiness · p, 1)``.
        """
        require_probability(p, "marginal p", open_interval=True)
        if burstiness < 0.0:
            raise ScanStatisticsError("burstiness must be non-negative")
        p11 = min(1.0 - 1e-12, burstiness * p)
        # π₁ = p01 / (p01 + 1 − p11)  ⇒  p01 = p (1 − p11) / (1 − p)
        p01 = p * (1.0 - p11) / (1.0 - p)
        if not 0.0 <= p01 <= 1.0:
            raise ScanStatisticsError(
                f"no valid chain with marginal {p} and burstiness {burstiness}"
            )
        return cls(p01=p01, p11=p11)

    @classmethod
    def from_run_length(cls, p: float, mean_run: float) -> "MarkovChainSpec":
        """Build a chain with stationary event probability ``p`` whose
        event runs have geometric mean length ``mean_run`` — the
        parametrisation the detector noise profiles use
        (:class:`repro.detectors.profiles.LabelAccuracy.burst_off`).

        Mean run length ``b`` fixes ``p11 = 1 − 1/b``; stationarity then
        gives ``p01 = p (1 − p11) / (1 − p)``.
        """
        require_probability(p, "marginal p", open_interval=True)
        if mean_run < 1.0:
            raise ScanStatisticsError("mean_run must be >= 1")
        p11 = 1.0 - 1.0 / mean_run
        p01 = p * (1.0 - p11) / (1.0 - p)
        if not 0.0 <= p01 <= 1.0:
            raise ScanStatisticsError(
                f"no valid chain with marginal {p} and mean run {mean_run}"
            )
        return cls(p01=p01, p11=p11)


def markov_scan_tail(k: int, w: int, n: int, chain: MarkovChainSpec) -> float:
    """``P(S_w(N) >= k)`` for Markov-dependent trials, exact via FMCE."""
    return exact_scan_tail(
        k,
        w,
        n,
        transition=lambda last: chain.p11 if last else chain.p01,
        initial_success=chain.stationary_p,
    )


def adjusted_critical_value(
    p: float,
    w: int,
    n: int,
    alpha: float,
    burstiness: float,
    *,
    cap_at_window: bool = True,
) -> int:
    """Critical value under a bursty-noise prior at any window size.

    ``burstiness`` is the *mean event-run length* (the detector profiles'
    ``burst_off``).  For windows the FMCE engine can handle exactly
    (``w <=`` :data:`repro.scanstats.exact.MAX_EXACT_WINDOW`), this is the
    exact Markov quota.  For larger windows it falls back to *declumping*:
    a bursty process with mean run length ``b`` is approximately a thinned
    process of cluster starts at rate ``p / b``, each cluster carrying
    ``~b`` events, so the quota is the i.i.d. cluster quota scaled by
    ``b``.  Both branches reduce to the plain Eq. 5 value at
    ``burstiness = 1``; both are monotone in the burstiness.
    """
    from repro.scanstats.critical import critical_value
    from repro.scanstats.exact import MAX_EXACT_WINDOW

    if burstiness <= 1.0:
        return critical_value(p, w, n, alpha, cap_at_window=cap_at_window)
    if w <= MAX_EXACT_WINDOW:
        chain = MarkovChainSpec.from_run_length(min(p, 0.49), burstiness)
        return markov_critical_value(
            chain, w, n, alpha, cap_at_window=cap_at_window
        )
    cluster_rate = max(1e-12, min(1.0, p / burstiness))
    k_clusters = critical_value(
        cluster_rate, w, n, alpha, cap_at_window=False
    )
    k_events = int(math.ceil(k_clusters * burstiness))
    return min(k_events, w) if cap_at_window else k_events


def markov_critical_value(
    chain: MarkovChainSpec,
    w: int,
    n: int,
    alpha: float = 0.05,
    *,
    cap_at_window: bool = True,
) -> int:
    """Critical value (Eq. 5) under the Markov model instead of i.i.d.

    Because positive correlation inflates the chance of clustered events,
    the Markov critical value is >= the i.i.d. one at equal marginal rate —
    the ``bench_ablation_markov`` benchmark quantifies the gap.
    """
    require_probability(alpha, "alpha")
    if alpha <= 0.0:
        raise ScanStatisticsError("alpha must be > 0 for a finite quota")
    lo, hi = 1, w + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if markov_scan_tail(mid, w, n, chain) <= alpha:
            hi = mid
        else:
            lo = mid + 1
    return min(lo, w) if cap_at_window else lo
