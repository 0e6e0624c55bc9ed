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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Sequence

from repro.errors import ScanStatisticsError
from repro.utils.validation import Amount, Check, Count, read_record, require_positive, write_record
from repro._typing import StateDict

Probability = Annotated[float, Check(lambda p: 0 < p < 1, "inside (0, 1)")]


@dataclass(frozen=True)
class EstimatorState:
    """:meth:`KernelRateEstimator.state_dict`, the scalar interchange row."""

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
    stream over it is :meth:`KernelRateBank.update_row`; the recursion for
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

    def state_dict(self) -> StateDict:
        """JSON-serialisable snapshot of the estimator (checkpointing)."""
        return write_record(EstimatorState(
            self.bandwidth, self.initial_p, self.p_floor, self.p_ceil, self.prior_mass,
            self._weighted_events, self._time, self._event_count,
        ))

    @classmethod
    def from_state_dict(cls, state: StateDict | EstimatorState) -> "KernelRateEstimator":
        """Rebuild an estimator from :meth:`state_dict` output."""
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

    Holds ``weighted_events`` / ``time`` / ``event_count`` (and the fixed
    per-row parameters) as one column per field for all tracked labels.
    The columns are plain Python lists and there is one update:
    :meth:`update_row` (Eq. 6 decay, batch-fold or ``advance()``
    imputation, then the posterior rate, on Python floats).

    **Bit-identity contract.**  Every number this bank produces is
    bit-identical to driving one scalar estimator per row (the reference
    in ``tests/reference/kernel_scalar.py``; a row checkpoints as
    :class:`EstimatorState`, see :meth:`state_dict_row` /
    :meth:`load_row`): the same :func:`math.exp` calls (memoised per
    distinct ``(units, bandwidth)`` pair) and the same IEEE-754 operations
    in the scalar code's association order.  The property suite in
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
            self._time.append(int(e._time))
            self._event_count.append(int(e._event_count))
        return range(start, len(self))

    # -- scalar per-row ops (reference-identical) ---------------------------------

    def update_row(self, row: int, events: int, total: int, fold: bool) -> float:
        """The scalar Eq. 6 update of one row, and its new estimate.

        ``fold`` rows take the scalar reference's ``observe_batch`` update
        with ``events`` positives in ``total`` units, the rest the
        rate-preserving ``advance`` imputation (a no-op while the row's
        clock is still at zero); ``total == 0`` leaves the row untouched.
        Returns the row's ``rate`` after the update — the clamped posterior
        mean, computed once.
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
        """The row's estimate — the scalar reference's ``rate``."""
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
        return write_record(self.state_row(row))

    def state_row(self, row: int) -> EstimatorState:
        return EstimatorState(
            self._bandwidth[row], self._initial_p[row], self._p_floor[row], self._p_ceil[row],
            self._prior_mass[row], self._weighted_events[row], self._time[row],
            self._event_count[row],
        )

    def load_row(self, row: int, state: StateDict | EstimatorState) -> None:
        """Overwrite one row from scalar :meth:`state_dict` output, routed
        through :meth:`KernelRateEstimator.from_state_dict` and
        :meth:`extend` so the validation and the ``decay`` derivation apply
        unchanged."""
        scratch = KernelRateBank.from_estimators([KernelRateEstimator.from_state_dict(state)])
        for name, column in vars(scratch).items():
            if type(column) is list:  # a row column, not the exp memo
                getattr(self, name)[row] = column[0]
