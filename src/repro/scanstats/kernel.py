"""Adaptive background-probability estimation for SVAQD (§3.3).

The paper estimates the Bernoulli background probability ``p(t)`` of a
predicate with an exponential-kernel smoother over the event history plus an
*edge correction* (Diggle 1985) that removes the bias near the start of the
stream, arriving at the recursive update of Eq. 6.

:class:`KernelRateBank` maintains, per estimator row, the sufficient statistic

    ``S(t) = Σ_n exp(−(t − t_n)/u)``        (t_n = OU index of event n)

incrementally: advancing the clock by ``Δt`` occurrence units multiplies
``S`` by ``exp(−Δt/u)``; observing an event adds 1.  The edge-corrected
estimate is

    ``p̂(t) = (1 − e^{−1/u}) · S(t) / (1 − e^{−t/u})``

which is exactly unbiased when the true probability is constant:
``E[S(t)] = p Σ_{d=0}^{t−1} e^{−d/u} = p (1 − e^{−t/u}) / (1 − e^{−1/u})``.
(The paper's printed Eq. 6 uses the first-order ``1/u ≈ 1 − e^{−1/u}``
normalisation; the scalar reference in ``tests/reference/kernel_scalar.py``
exposes that variant, and the test suite checks the two agree to
``O(1/u²)``.)

The bandwidth ``u`` (the kernel *volume*) controls the adaptivity trade-off
the paper describes: sudden changes in the stream are picked up within ~``u``
occurrence units while gradual drift is smoothed away.  It is the subject of
the ``bench_ablation_kernel_bandwidth`` benchmark.

This module is where the Eq. 6 arithmetic lives, once:
:meth:`KernelRateBank.fold_row` updates every row of a bank for one row of
a block — a rate group's labels over one clip — in one call, from a plan
of per-label constants compiled once per block (:meth:`KernelRateBank.windows`).
A row keeps the raw rate its last posterior computed, so an advance
imputes it without a second exponential: one ``exp`` a row an update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Sequence

from repro.errors import ScanStatisticsError
from repro.utils.validation import Amount, Check, Count, read_record, require_positive
from repro._typing import StateDict

Probability = Annotated[float, Check(lambda p: 0 < p < 1, "inside (0, 1)")]

#: A bank row's part of a fold plan (:meth:`KernelRateBank.fold_row`):
#: ``(offset, counts, total, decay, 1 − decay, keep, share)``.
PlanRow = tuple[int, Sequence[int], int, float, float, float, float]


@dataclass(frozen=True)
class EstimatorState:
    """One estimator's state, the scalar interchange row
    (:meth:`KernelRateBank.state_row`)."""

    bandwidth: Annotated[float, Check(lambda u: u > 0, "> 0")]
    initial_p: Probability
    p_floor: Probability
    p_ceil: Probability
    prior_mass: Amount
    weighted_events: Amount
    time: Count
    event_count: Count


@dataclass
class KernelRateEstimator:
    """One edge-corrected exponential-kernel rate estimator's parameters,
    their validation and its state — a :class:`KernelRateBank` row.  The
    stream over it is :meth:`KernelRateBank.fold_row`; the recursion for
    one estimator is the tests' oracle (``tests/reference/kernel_scalar.py``).

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

    # -- persistence ---------------------------------------------------------------

    @classmethod
    def from_state_dict(cls, state: StateDict | EstimatorState) -> "KernelRateEstimator":
        """Rebuild an estimator from an :class:`EstimatorState` or its JSON
        form."""
        row = read_record(EstimatorState, state, "estimator checkpoint")
        estimator = cls(
            bandwidth=row.bandwidth,
            initial_p=row.initial_p,
            p_floor=row.p_floor,
            p_ceil=row.p_ceil,
            prior_mass=row.prior_mass,
        )
        estimator._weighted_events = row.weighted_events
        estimator._time = row.time
        estimator._event_count = row.event_count
        return estimator


class KernelRateBank:
    """Columnar bank of :class:`KernelRateEstimator` rows.

    Holds ``weighted_events`` / ``time`` / ``event_count`` as one column
    per field for all tracked labels, and the fixed per-row parameters as
    one column of tuples.
    The columns are plain Python lists and there is one update:
    :meth:`fold_row` (per row the Eq. 6 decay, batch-fold or ``advance()``
    imputation, then the posterior rate and its bucket test, on Python
    floats).

    **Bit-identity contract.**  Every number this bank produces is
    bit-identical to driving one scalar estimator per row (the reference
    in ``tests/reference/kernel_scalar.py``; a row checkpoints as
    :class:`EstimatorState`, see :meth:`state_row` /
    :meth:`load_row`): the same :func:`math.exp` results (a window's decay
    computed once, by :meth:`windows`; an advance's raw rate kept from the
    posterior that computed it from the same floats) and the same IEEE-754
    operations in the scalar code's association order.  The property suite in
    ``tests/scanstats/test_kernel_bank.py`` pins the equivalence across
    observe_batch/advance interleavings.
    """

    def __init__(self) -> None:
        #: Per row ``(bandwidth, initial_p, p_floor, p_ceil, prior_mass,
        #: keep)``, ``keep = 1 − e^{−1/u}``: read together or not at all.
        self._fixed: list[tuple[float, float, float, float, float, float]] = []
        self._weighted_events: list[float] = []
        self._time: list[int] = []
        self._event_count: list[int] = []
        #: Per row, the edge-corrected raw rate ``keep·weighted/(1 − e^{−t/u})``
        #: of its current state, which an advance imputes.
        self._raw: list[float] = []

    def __len__(self) -> int:
        return len(self._fixed)

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
        Per-row ``keep = 1 − e^{−1/u}`` and the raw rate are computed
        exactly as the scalar reference does.
        """
        start = len(self)
        for e in estimators:
            bandwidth, weighted, time = float(e.bandwidth), float(e._weighted_events), int(e._time)
            keep = 1.0 - math.exp(-1.0 / bandwidth)
            self._fixed.append((
                bandwidth, float(e.initial_p), float(e.p_floor),
                float(e.p_ceil), float(e.prior_mass), keep,
            ))
            self._weighted_events.append(weighted)
            self._time.append(time)
            self._event_count.append(int(e._event_count))
            edge = 1.0 - math.exp(-time / bandwidth) if time else 0.0
            self._raw.append(keep * weighted / edge if edge > 0.0 else float(e.initial_p))
        return range(start, len(self))

    # -- the Eq. 6 update ------------------------------------------------------------

    def windows(self, totals: Sequence[int]) -> list[tuple[int, float, float, float, float]]:
        """Per row, the constants of an update over ``totals[row]``
        occurrence units: ``(total, decay, 1 − decay, keep, share)`` with
        ``decay = e^{−total/u}``, ``keep = 1 − e^{−1/u}`` and the fold
        share ``(1 − decay)/(total·keep)`` of one event.  A zero total is a
        no-op window (and divides by nothing)."""
        windows: list[tuple[int, float, float, float, float]] = []
        for total, (bandwidth, *_, keep) in zip(totals, self._fixed, strict=True):
            decay = math.exp(-total / bandwidth) if total else 1.0
            share = (1.0 - decay) / (total * keep) if total else 0.0
            windows.append((total, decay, 1.0 - decay, keep, share))
        return windows

    def fold_row(
        self, plan: Sequence[PlanRow], row: int, evaluated: bytearray, folds: bool,
        rate_lo: Sequence[float], rate_hi: Sequence[float],
    ) -> list[tuple[int, float]]:
        """Row ``row`` of a block through Eq. 6, for every bank row at once.

        ``plan[r]`` is bank row ``r``'s ``(offset, counts, *window)``: where
        its ``evaluated`` flag sits for block row 0, its count column and
        its :meth:`windows` entry.  A row observes ``counts[row]`` positives
        in ``total`` units (the scalar ``observe_batch``) when the block row
        ``folds`` and evaluated it, and takes the rate-preserving
        ``advance`` otherwise (a no-op while its clock is at zero), which
        imputes the row's kept raw rate rather than recompute it.  Returns
        ``(r, rate)`` for each row whose rate — the clamped posterior mean,
        computed once — is not inside ``(rate_lo[r], rate_hi[r])``.
        """
        sums, times, raws = self._weighted_events, self._time, self._raw
        fixed, exp = self._fixed, math.exp
        moved: list[tuple[int, float]] = []
        for r, (offset, counts, total, decay, fade, keep, share) in enumerate(plan):
            weighted = sums[r]
            time = times[r]
            bandwidth, initial_p, p_floor, p_ceil, prior_mass, _ = fixed[r]
            value = initial_p
            if total and folds and evaluated[offset + row]:
                events = counts[row]
                weighted = sums[r] = weighted * decay + (events * share if events else 0.0)
                self._event_count[r] += events
                time = times[r] = time + total
            elif total and time:  # imputes the raw rate of the state it leaves
                weighted = sums[r] = weighted * decay + raws[r] * fade / keep
                time = times[r] = time + total
            if time:
                edge = 1.0 - exp(-time / bandwidth)
                raw = raws[r] = keep * weighted / edge if edge > 0.0 else initial_p
                t_eff = bandwidth * edge
                value = (initial_p * prior_mass + raw * t_eff) / (prior_mass + t_eff)
            # min(p_ceil, max(p_floor, value)), without the two calls
            if value < p_floor:
                value = p_floor
            elif value > p_ceil:
                value = p_ceil
            if not rate_lo[r] < value < rate_hi[r]:
                moved.append((r, value))
        return moved

    # -- interchange --------------------------------------------------------------
    #
    # The scalar estimator's state dict is the interchange format: banks
    # checkpoint as per-row scalar dicts, so bank-written checkpoints load
    # into scalar estimators and vice versa, byte-for-byte.

    def state_row(self, row: int) -> EstimatorState:
        return EstimatorState(
            *self._fixed[row][:5],
            self._weighted_events[row], self._time[row], self._event_count[row],
        )

    def load_row(self, row: int, state: StateDict | EstimatorState) -> None:
        """Overwrite one row from an :class:`EstimatorState` or its JSON form, routed
        through :meth:`KernelRateEstimator.from_state_dict` and
        :meth:`extend` so the validation and the ``keep`` derivation apply
        unchanged."""
        scratch = KernelRateBank.from_estimators([KernelRateEstimator.from_state_dict(state)])
        for name, column in vars(scratch).items():
            getattr(self, name)[row] = column[0]
