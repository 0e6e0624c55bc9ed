"""Adaptive background-probability estimation for SVAQD (§3.3).

The paper estimates the Bernoulli background probability ``p(t)`` of a
predicate with an exponential-kernel smoother over the event history plus an
*edge correction* (Diggle 1985) that removes the bias near the start of the
stream, arriving at the recursive update of Eq. 6.

:class:`KernelRateEstimator` maintains the sufficient statistic

    ``S(t) = Σ_n exp(−(t − t_n)/u)``        (t_n = OU index of event n)

incrementally: advancing the clock by ``Δt`` occurrence units multiplies
``S`` by ``exp(−Δt/u)``; observing an event adds 1.  The edge-corrected
estimate is

    ``p̂(t) = (1 − e^{−1/u}) · S(t) / (1 − e^{−t/u})``

which is exactly unbiased when the true probability is constant:
``E[S(t)] = p Σ_{d=0}^{t−1} e^{−d/u} = p (1 − e^{−t/u}) / (1 − e^{−1/u})``.
(The paper's printed Eq. 6 uses the first-order ``1/u ≈ 1 − e^{−1/u}``
normalisation; :meth:`paper_normalised` exposes that variant, and the test
suite checks the two agree to ``O(1/u²)``.)

The bandwidth ``u`` (the kernel *volume*) controls the adaptivity trade-off
the paper describes: sudden changes in the stream are picked up within ~``u``
occurrence units while gradual drift is smoothed away.  It is the subject of
the ``bench_ablation_kernel_bandwidth`` benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError, ScanStatisticsError
from repro.utils.validation import require_positive
from repro._typing import StateDict


@dataclass
class KernelRateEstimator:
    """Streaming edge-corrected exponential-kernel rate estimator.

    Parameters
    ----------
    bandwidth:
        Kernel volume ``u`` in occurrence units.  Larger = smoother.
    initial_p:
        Prior background probability returned before any data arrives and
        blended out as evidence accumulates (SVAQD's ``p_obj_0 / p_act_0``).
    p_floor / p_ceil:
        Clamps applied to the estimate before it is fed to the critical-value
        search (a zero estimate would make *any* event significant forever;
        an estimate of 1 would disable the predicate).
    """

    bandwidth: float
    initial_p: float = 1e-4
    p_floor: float = 1e-7
    p_ceil: float = 0.999
    #: Strength of the ``initial_p`` prior, expressed as a pseudo-sample of
    #: occurrence units.  The reported rate is the posterior-mean blend
    #: ``(initial_p·mass + raw·T_eff) / (mass + T_eff)`` where ``T_eff`` is
    #: the kernel's effective sample size; this keeps the first clips from
    #: whipsawing the critical values while fading the prior quickly once
    #: real evidence accumulates.  ``0.0`` (the default) resolves to
    #: ``bandwidth / 10`` in ``__post_init__``, so after construction this
    #: is always a plain positive float.
    prior_mass: float = 0.0

    _weighted_events: float = field(default=0.0, init=False, repr=False)
    _time: int = field(default=0, init=False, repr=False)
    _event_count: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        require_positive(self.bandwidth, "bandwidth u")
        if not 0.0 < self.initial_p < 1.0:
            raise ScanStatisticsError(
                f"initial_p must be in (0, 1); got {self.initial_p}"
            )
        if not 0.0 < self.p_floor <= self.p_ceil < 1.0:
            raise ScanStatisticsError("need 0 < p_floor <= p_ceil < 1")
        if self.prior_mass < 0.0:
            raise ScanStatisticsError("prior_mass must be positive")
        if not self.prior_mass:  # 0.0 = unset; resolve the default
            self.prior_mass = self.bandwidth / 10.0
        self._decay = math.exp(-1.0 / self.bandwidth)

    # -- stream interface ------------------------------------------------------

    def observe(self, event: bool | int) -> float:
        """Advance the clock one occurrence unit, record ``event``, and
        return the updated estimate.  This is the per-OU hot path used by
        SVAQD."""
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

    # -- persistence ---------------------------------------------------------------

    def state_dict(self) -> StateDict:
        """JSON-serialisable snapshot of the estimator (checkpointing)."""
        return {
            "bandwidth": self.bandwidth,
            "initial_p": self.initial_p,
            "p_floor": self.p_floor,
            "p_ceil": self.p_ceil,
            "prior_mass": self.prior_mass,
            "weighted_events": self._weighted_events,
            "time": self._time,
            "event_count": self._event_count,
        }

    @classmethod
    def from_state_dict(cls, state: StateDict) -> "KernelRateEstimator":
        """Rebuild an estimator from :meth:`state_dict` output."""
        mass = state["prior_mass"]
        if type(mass) not in (int, float):
            raise ConfigurationError(f"estimator prior_mass must be a number; got {mass!r}")
        estimator = cls(
            bandwidth=state["bandwidth"],
            initial_p=state["initial_p"],
            p_floor=state["p_floor"],
            p_ceil=state["p_ceil"],
            prior_mass=float(mass),
        )
        estimator._weighted_events = float(state["weighted_events"])
        estimator._time = int(state["time"])
        estimator._event_count = int(state["event_count"])
        return estimator

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


class KernelRateBank:
    """Columnar bank of :class:`KernelRateEstimator` rows.

    Holds ``weighted_events`` / ``time`` / ``event_count`` (and the fixed
    per-row parameters) as one column per field for all tracked labels.
    The columns are plain Python lists and there is one update:
    :meth:`update_row` (Eq. 6 decay, batch-fold or ``advance()``
    imputation, then the posterior rate, on Python floats).

    **Bit-identity contract.**  Every number this bank produces is
    bit-identical to driving one scalar :class:`KernelRateEstimator` per
    row (the reference implementation and the checkpoint interchange
    format — see :meth:`state_dict_row` / :meth:`load_row`): the same
    :func:`math.exp` calls (memoised per distinct ``(units, bandwidth)``
    pair) and the same IEEE-754 operations in the scalar code's
    association order.  The property suite in
    ``tests/scanstats/test_kernel_bank.py`` pins the equivalence across
    observe_batch/advance interleavings.
    """

    def __init__(self) -> None:
        self._bandwidth: list[float] = []
        self._initial_p: list[float] = []
        self._p_floor: list[float] = []
        self._p_ceil: list[float] = []
        self._prior_mass: list[float] = []
        self._decay: list[float] = []
        self._weighted_events: list[float] = []
        self._time: list[int] = []
        self._event_count: list[int] = []
        #: math.exp(-units / bandwidth) memo.  Bounded in practice (units
        #: is the per-row window size, a constant), but capped defensively
        #: for adversarial unit streams.
        self._exp_memo: dict[tuple[float, float], float] = {}

    def __len__(self) -> int:
        return len(self._bandwidth)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_estimators(
        cls, estimators: Sequence[KernelRateEstimator]
    ) -> "KernelRateBank":
        bank = cls()
        bank.extend(estimators)
        return bank

    def extend(self, estimators: Sequence[KernelRateEstimator]) -> range:
        """Absorb scalar estimators (state included) as new rows.

        Returns the ``range`` of row indices the estimators landed in.
        Per-row ``decay`` is recomputed with :func:`math.exp` exactly as
        the scalar ``__post_init__`` does.
        """
        start = len(self)
        for e in estimators:
            self._bandwidth.append(float(e.bandwidth))
            self._initial_p.append(float(e.initial_p))
            self._p_floor.append(float(e.p_floor))
            self._p_ceil.append(float(e.p_ceil))
            self._prior_mass.append(float(e.prior_mass))
            self._decay.append(math.exp(-1.0 / e.bandwidth))
            self._weighted_events.append(float(e._weighted_events))
            self._time.append(int(e.time))
            self._event_count.append(int(e.event_count))
        return range(start, len(self))

    # -- scalar per-row ops (reference-identical) ---------------------------------

    def update_row(self, row: int, events: int, total: int, fold: bool) -> float:
        """The scalar Eq. 6 update of one row, and its new estimate.

        ``fold`` rows take the :meth:`KernelRateEstimator.observe_batch`
        update with ``events`` positives in ``total`` units, the rest the
        rate-preserving :meth:`KernelRateEstimator.advance` imputation (a
        no-op while the row's clock is still at zero); ``total == 0``
        leaves the row untouched.  Returns the row's
        :attr:`KernelRateEstimator.rate` after the update — the clamped
        posterior mean, computed once.
        """
        weighted = self._weighted_events[row]
        time = self._time[row]
        bandwidth = self._bandwidth[row]
        value = initial_p = self._initial_p[row]
        keep = 1.0 - self._decay[row]
        if total and (fold or time):
            decay_total = self._exp(total, bandwidth)
            if fold:
                spread = (
                    events * ((1.0 - decay_total) / (total * keep))
                    if events
                    else 0.0
                )
                self._event_count[row] += events
            else:
                edge = 1.0 - math.exp(-time / bandwidth)
                raw = keep * weighted / edge if edge > 0.0 else initial_p
                spread = raw * (1.0 - decay_total) / keep
            weighted = self._weighted_events[row] = (
                weighted * decay_total + spread
            )
            time = self._time[row] = time + total
        if time:
            edge = 1.0 - math.exp(-time / bandwidth)
            raw = keep * weighted / edge if edge > 0.0 else initial_p
            t_eff = bandwidth * edge
            prior_mass = self._prior_mass[row]
            value = (initial_p * prior_mass + raw * t_eff) / (
                prior_mass + t_eff
            )
        # min(p_ceil, max(p_floor, value)), without the two calls
        if value < self._p_floor[row]:
            return self._p_floor[row]
        p_ceil = self._p_ceil[row]
        return p_ceil if value > p_ceil else value

    def rate_row(self, row: int) -> float:
        """Row-wise :meth:`KernelRateEstimator.rate`."""
        return self.update_row(row, 0, 0, False)

    def _exp(self, units: int | float, bandwidth: float) -> float:
        """Memoised ``math.exp(-units / bandwidth)``."""
        key = (float(units), bandwidth)
        hit = self._exp_memo.get(key)
        if hit is None:
            if len(self._exp_memo) > 4096:
                self._exp_memo.clear()
            hit = math.exp(-units / bandwidth)
            self._exp_memo[key] = hit
        return hit

    # -- interchange --------------------------------------------------------------
    #
    # The scalar estimator's state dict is the interchange format: banks
    # checkpoint as per-row scalar dicts, so bank-written checkpoints load
    # into scalar estimators and vice versa, byte-for-byte.

    def state_dict_row(self, row: int) -> StateDict:
        """Scalar-format :meth:`KernelRateEstimator.state_dict` for one row."""
        return {
            "bandwidth": self._bandwidth[row],
            "initial_p": self._initial_p[row],
            "p_floor": self._p_floor[row],
            "p_ceil": self._p_ceil[row],
            "prior_mass": self._prior_mass[row],
            "weighted_events": self._weighted_events[row],
            "time": self._time[row],
            "event_count": self._event_count[row],
        }

    def load_row(self, row: int, state: StateDict) -> None:
        """Overwrite one row from scalar :meth:`state_dict` output.

        Routed through :meth:`KernelRateEstimator.from_state_dict` so the
        scalar validation (and ``decay`` derivation) applies unchanged.
        """
        estimator = KernelRateEstimator.from_state_dict(state)
        self._bandwidth[row] = float(estimator.bandwidth)
        self._initial_p[row] = float(estimator.initial_p)
        self._p_floor[row] = float(estimator.p_floor)
        self._p_ceil[row] = float(estimator.p_ceil)
        self._prior_mass[row] = float(estimator.prior_mass)
        self._decay[row] = math.exp(-1.0 / estimator.bandwidth)
        self._weighted_events[row] = estimator._weighted_events
        self._time[row] = estimator.time
        self._event_count[row] = estimator.event_count

    def as_estimator(self, row: int) -> KernelRateEstimator:
        """Materialise one row as a standalone scalar estimator."""
        return KernelRateEstimator.from_state_dict(self.state_dict_row(row))
