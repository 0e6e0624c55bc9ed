"""The scalar kernel rate estimator — the differential oracle for
:class:`repro.scanstats.kernel.KernelRateBank`.

:class:`ScalarKernelRateEstimator` drives one estimator per occurrence unit
or per clip with the Eq. 6 recursion written out plainly.  The bank's
:meth:`~repro.scanstats.kernel.KernelRateBank.fold_row` must produce the
same numbers for every row bit for bit: the same :func:`math.exp` calls and
the same IEEE-754 operations in this code's association order.  The package keeps
:class:`~repro.scanstats.kernel.KernelRateEstimator` for the parameters,
their validation and reading the checkpoint row; this subclass adds the
stream and the row's writer.

The estimate is ``p̂(t) = (1 − e^{−1/u}) · S(t) / (1 − e^{−t/u})`` over the
sufficient statistic ``S(t) = Σ_n exp(−(t − t_n)/u)``, exactly unbiased when
the true probability is constant.  The paper's printed Eq. 6 uses the
first-order ``1/u ≈ 1 − e^{−1/u}`` normalisation; :meth:`paper_normalised`
exposes that variant, and the tests check the two agree to ``O(1/u²)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._typing import StateDict
from repro.errors import ScanStatisticsError
from repro.scanstats.kernel import EstimatorState, KernelRateEstimator
from repro.utils.validation import write_record


@dataclass
class ScalarKernelRateEstimator(KernelRateEstimator):
    """Streaming edge-corrected exponential-kernel rate estimator."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self._decay = math.exp(-1.0 / self.bandwidth)

    def state_dict(self) -> StateDict:
        """JSON-serialisable snapshot of the estimator (checkpointing)."""
        return write_record(EstimatorState(
            self.bandwidth, self.initial_p, self.p_floor, self.p_ceil, self.prior_mass,
            self._weighted_events, self._time, self._event_count,
        ))

    # -- stream interface ------------------------------------------------------

    def observe(self, event: bool | int) -> float:
        """Advance the clock one occurrence unit, record ``event``, and
        return the updated estimate."""
        self._weighted_events = self._weighted_events * self._decay + (
            1.0 if event else 0.0
        )
        self._time += 1
        if event:
            self._event_count += 1
        return self.rate

    def observe_batch(self, events: int, total: int) -> float:
        """Fold ``total`` occurrence units containing ``events`` positives.

        SVAQD's update cadence is per-clip (Algorithm 3 updates "after
        processing a fixed number of clips"); this folds a whole clip in one
        call.  The positives are treated as uniformly spread across the
        batch, which matches the per-OU loop to first order and is what the
        property tests verify.
        """
        if total < 0 or events < 0 or events > total:
            raise ScanStatisticsError(
                f"invalid batch: {events} events in {total} units"
            )
        if total == 0:
            return self.rate
        decay_total = math.exp(-total / self.bandwidth)
        # Uniformly spread events contribute sum_{j} e^{-(offsets)/u}; use the
        # mean kernel weight over the batch span for each event.
        if events:
            mean_weight = (1.0 - decay_total) / (total * (1.0 - self._decay))
            spread = events * mean_weight
        else:
            spread = 0.0
        self._weighted_events = self._weighted_events * decay_total + spread
        self._time += total
        self._event_count += events
        return self.rate

    def advance(self, total: int) -> float:
        """Advance the clock ``total`` occurrence units without observations.

        Used for predicates that short-circuit evaluation skipped: their
        event counts for the elapsed clip are unknown, so events are imputed
        at the current estimated rate, which (exactly) leaves
        :attr:`raw_rate` unchanged while the clock moves forward.
        """
        if total < 0:
            raise ScanStatisticsError(f"cannot advance by {total} units")
        if total == 0 or self._time == 0:
            # Before any observation the raw estimate is the prior; imputing
            # from the prior would fabricate confidence, so just wait.
            return self.rate
        rate = self.raw_rate
        decay_total = math.exp(-total / self.bandwidth)
        self._weighted_events = (
            self._weighted_events * decay_total
            + rate * (1.0 - decay_total) / (1.0 - self._decay)
        )
        self._time += total
        return self.rate

    # -- estimates --------------------------------------------------------------

    @property
    def time(self) -> int:
        """Occurrence units observed so far."""
        return self._time

    @property
    def event_count(self) -> int:
        """Events (positive predictions) observed so far."""
        return self._event_count

    @property
    def raw_rate(self) -> float:
        """Edge-corrected estimate without prior blending or clamping."""
        if self._time == 0:
            return self.initial_p
        denom = 1.0 - math.exp(-self._time / self.bandwidth)
        if denom <= 0.0:
            return self.initial_p
        return (1.0 - self._decay) * self._weighted_events / denom

    @property
    def effective_time(self) -> float:
        """The kernel's effective sample size in occurrence units,
        ``u · (1 − e^{−t/u})``, saturating at the bandwidth."""
        return self.bandwidth * (1.0 - math.exp(-self._time / self.bandwidth))

    @property
    def rate(self) -> float:
        """The background-probability estimate SVAQD feeds to Eq. 5.

        Posterior-mean smoothing: the raw kernel estimate is weighted by the
        kernel's effective sample size against the ``initial_p`` prior with
        ``prior_mass`` pseudo-units, so early high-variance estimates cannot
        whipsaw the critical values.
        """
        if self._time == 0:
            return self._clamp(self.initial_p)
        t_eff = self.effective_time
        blended = (
            self.initial_p * self.prior_mass + self.raw_rate * t_eff
        ) / (self.prior_mass + t_eff)
        return self._clamp(blended)

    def paper_normalised(self) -> float:
        """The estimate with the paper's literal ``1/u`` normalisation.

        §3.3 writes ``p̂(t) = (1/(N* u)) Σ K(...)`` with the Diggle edge
        correction; after the correction the ``1/N*`` cancels into the
        kernel-mass normalisation and the remaining difference from
        :attr:`raw_rate` is ``(1/u) / (1 − e^{−1/u}) = 1 + O(1/u)``.
        """
        if self._time == 0:
            return self.initial_p
        denom = 1.0 - math.exp(-self._time / self.bandwidth)
        if denom <= 0.0:
            return self.initial_p
        return self._weighted_events / (self.bandwidth * denom)

    def _clamp(self, value: float) -> float:
        return min(self.p_ceil, max(self.p_floor, value))

    # -- maintenance --------------------------------------------------------------

    def reset(self, initial_p: float | None = None) -> None:
        """Forget all history, optionally re-seeding the prior."""
        if initial_p is not None:
            if not 0.0 < initial_p < 1.0:
                raise ScanStatisticsError(
                    f"initial_p must be in (0, 1); got {initial_p}"
                )
            self.initial_p = initial_p
        self._weighted_events = 0.0
        self._time = 0
        self._event_count = 0
