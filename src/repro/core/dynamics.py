"""Dynamic background-probability management for SVAQD sessions,
conjunctive and CNF alike.

One :class:`QuotaManager` owns, per query predicate, a kernel rate
estimator (§3.3) plus the critical-value table for its detection quota
(Eq. 5 at ``alpha``).  The update policy — which clips count as null data
— is documented on :meth:`QuotaManager.update`; every dynamic
:class:`repro.core.session.StreamSession` (Algorithm 3) drives it alike.

The estimators are the rows of the manager's own
:class:`repro.scanstats.kernel.KernelRateBank` (each tracker holds its row
index), and a clip's update is one call, :meth:`QuotaManager.fold`: one
:meth:`~repro.scanstats.kernel.KernelRateBank.fold_row` pass over the bank
— per row the scalar Eq. 6 update, its rate computed once and tested
against the open probability interval of the tracker's last quantised
bucket — after which only the trackers whose rate left its bucket redo
the ``log10``/table pass.  The row is one row of a block, read through a
:meth:`QuotaManager.plan` compiled once per block: the block path's row
stepper folds its own columns; :meth:`QuotaManager.update` (a clip's
outcome map), :meth:`~QuotaManager.refresh_all` and
:meth:`~QuotaManager.rates` fold one-row blocks.  It is bit-identical to
one scalar :class:`~repro.scanstats.kernel.KernelRateEstimator` per label
(the kernel-bank property suite pins this).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.core.config import OnlineConfig
from repro.core.context import STAGE_ESTIMATOR
from repro.core.indicators import PredicateOutcome
from repro.errors import ConfigurationError
from repro.scanstats.critical import CriticalValueTable
from repro.scanstats.kernel import EstimatorState, KernelRateBank, KernelRateEstimator, PlanRow
from repro.utils.validation import read_record, write_record
from repro.video.model import VideoGeometry
from repro._typing import StateDict

if TYPE_CHECKING:
    from repro.core.context import ExecutionContext


@dataclass(frozen=True)
class ManagerState:
    """:meth:`QuotaManager.state_dict`: an interchange row per label."""

    estimators: dict[str, EstimatorState]


@dataclass
class PredicateTracker:
    """One predicate's estimator — ``row`` of the manager's bank — and
    the critical-value table that turns its rate into the detection quota
    ``k_crit``."""

    row: int
    table: CriticalValueTable
    k_crit: int = 0


class QuotaManager:
    """Per-predicate dynamic quotas for one streaming run."""

    #: Not checkpointed (RL002): rebuilt from constructor arguments — the
    #: caller reconstructs the manager with the same labels/geometry/config
    #: before ``load_state_dict``, and the tracker list, bank, fold plans,
    #: bucket-skip memo and accounting hook are all derived state.  The estimator
    #: payload itself rides in ``state_dict()["estimators"]``.
    _CHECKPOINT_EXCLUDE = frozenset(
        {"_config", "_tracker_list", "_bank", "_context", "_rate_lo", "_rate_hi",
         "_windows", "_clip_plan", "_idle_plan", "refresh_skipped"}
    )

    def __init__(
        self,
        frame_labels: Iterable[str],
        action_labels: Iterable[str],
        geometry: VideoGeometry,
        config: OnlineConfig,
    ) -> None:
        self._config = config
        frames_per_clip = geometry.frames_per_clip
        shots_per_clip = geometry.shots_per_clip
        shot_horizon = max(
            shots_per_clip, config.horizon_ou // geometry.frames_per_shot
        )
        shot_bandwidth = max(
            1.0, config.kernel_bandwidth_ou / geometry.frames_per_shot
        )
        # label -> (bandwidth, initial_p, w, n); a label named twice keeps
        # its first position and its last definition.
        specs: dict[str, tuple[float, float, int, int]] = {}
        for label in frame_labels:
            specs[label] = (
                config.kernel_bandwidth_ou, config.object_p0,
                frames_per_clip, config.horizon_ou,
            )
        for label in action_labels:
            specs[label] = (
                shot_bandwidth, config.action_p0, shots_per_clip, shot_horizon
            )
        # The estimators are the rows of the manager's own bank, in order.
        self._bank = KernelRateBank.from_estimators(
            [
                KernelRateEstimator(bandwidth=bandwidth, initial_p=initial_p)
                for bandwidth, initial_p, _, _ in specs.values()
            ]
        )
        self._trackers = {
            label: PredicateTracker(
                row,
                CriticalValueTable(
                    w=w, n=n, alpha=config.alpha,
                    burstiness=config.markov_burstiness,
                ),
            )
            for row, (label, (_, _, w, n)) in enumerate(specs.items())
        }
        self._tracker_list = list(self._trackers.values())
        self._context: "ExecutionContext | None" = None
        #: Label lookups skipped by the bucket-skip fast path (observable
        #: per manager; also mirrored into the attached context).
        self.refresh_skipped = 0
        self._compile()

    # -- wiring ------------------------------------------------------------------

    def set_context(self, context: "ExecutionContext | None") -> None:
        """Attach the execution context charged for estimator/refresh time."""
        self._context = context

    def _compile(self) -> None:
        """Compile the update windows (a clip's units are its table's ``w``)
        and the one-row plans (``_clip_plan`` reads a clip's outcomes,
        ``_idle_plan`` moves no row), then forget every tracker's bucket
        and look each quota up.
        (``_rate_lo``/``_rate_hi`` hold the open interval of a tracker's
        last quantised bucket; a rate strictly inside skips the lookup.)"""
        n = len(self._tracker_list)
        self._windows = self._bank.windows([t.table.w for t in self._tracker_list])
        self._clip_plan = [(i, [0], *w) for i, w in enumerate(self._windows)]
        self._idle_plan = [(i, [0], *w) for i, w in enumerate(self._bank.windows([0] * n))]
        self._rate_lo: list[float] = [math.inf] * n
        self._rate_hi: list[float] = [-math.inf] * n
        self.refresh_all()

    # -- queries -----------------------------------------------------------------

    def quotas(self) -> dict[str, int]:
        """Current ``k_crit`` per predicate label."""
        return {label: t.k_crit for label, t in self._trackers.items()}

    def rates(self) -> dict[str, float]:
        """Current background-probability estimates per label."""
        n = len(self._idle_plan)  # against empty buckets every rate comes back
        empty = [math.inf] * n, [-math.inf] * n
        moved = self._bank.fold_row(self._idle_plan, 0, bytearray(n), False, *empty)
        return {label: rate for label, (_, rate) in zip(self._trackers, moved, strict=True)}

    def tracker(self, label: str) -> PredicateTracker:
        return self._trackers[label]

    def refresh_all(self) -> None:
        """Refresh every tracker's quota from its current rate estimate.

        Incremental: a tracker whose rate is still strictly inside its
        last bucket's safe interval
        (:meth:`~repro.scanstats.critical.CriticalValueTable.bucket_bounds`)
        keeps its quota without touching ``log10`` or the table memo — the
        value ``table.lookup(rate)`` would produce, because within a
        bucket the table is constant by construction.
        """
        self.fold(self._idle_plan, 0, bytearray(len(self._idle_plan)), False, False)

    def _requantise(self, i: int, rate: float) -> None:
        """Tracker ``i``'s rate left its bucket: look the quota up and
        remember the new bucket's safe interval."""
        tracker = self._tracker_list[i]
        table = tracker.table
        bucket = table.bucket_of(rate)
        tracker.k_crit = table.lookup_bucket(bucket)
        self._rate_lo[i], self._rate_hi[i] = table.bucket_bounds(bucket)

    def labels(self) -> tuple[str, ...]:
        """Tracked predicate labels, in registration order."""
        return tuple(self._trackers)

    # -- checkpointing -----------------------------------------------------------

    def state(self) -> ManagerState:
        """Every estimator: per label, its bank row in the scalar
        interchange format (:class:`~repro.scanstats.kernel.EstimatorState`)."""
        rows = self._bank.state_row
        return ManagerState({label: rows(t.row) for label, t in self._trackers.items()})

    def state_dict(self) -> StateDict:
        return write_record(self.state())

    def load_state_dict(self, state: StateDict | ManagerState) -> None:
        """Restore estimator states from :meth:`state_dict` output, read as
        :class:`ManagerState` declares it; the entries must be exactly this
        manager's labels.  Nothing a checkpoint names is ever imported or
        called."""
        entries = read_record(ManagerState, state, "quota manager").estimators
        if entries.keys() != self._trackers.keys():
            raise ConfigurationError(
                f"checkpoint holds estimators for {sorted(entries)} but this "
                f"session tracks {sorted(self._trackers)}"
            )
        for label, entry in entries.items():
            self._bank.load_row(self._trackers[label].row, entry)
        self._compile()  # a row's bandwidth moves its windows

    # -- updates -----------------------------------------------------------------

    def plan(
        self, columns: Sequence[tuple[int, Sequence[int], int]]
    ) -> list[PlanRow]:
        """A block's fold plan, compiled once per block: per tracker, in
        order, ``(offset, counts, units)`` — where its ``evaluated`` flag
        sits for block row 0, its count column and a clip's units — joined
        to its window.  A clip's units are its table's ``w`` by
        construction (``frames_per_clip``, ``shots_per_clip``), so an
        evaluated label and a skipped one advance alike."""
        plan: list[PlanRow] = []
        for (offset, counts, units), window in zip(columns, self._windows, strict=True):
            assert units == window[0], "a clip's units are its tracker's window"
            plan.append((offset, counts, *window))
        return plan

    def fold(
        self, plan: Sequence[PlanRow], row: int, evaluated: bytearray,
        positive: bool, in_guard_band: bool,
    ) -> None:
        """Fold block row ``row`` (clip indicator ``positive``) into the
        estimators and refresh the quotas.

        The row's evaluated counts are folded as null data only when the
        clip is: under the default ``update_on="negative"`` policy a clip
        is credibly null data (§3.2 defines the background over stretches
        where the query predicates are not satisfied) when it is
        query-negative and not adjacent to a detection
        (``in_guard_band``).  Every other label advances with
        rate-preserving imputation.  Only the trackers whose rate left its
        bucket look their quota up."""
        policy = self._config.update_on
        folds = policy == "all" or (
            positive if policy == "positive" else not (positive or in_guard_band)
        )
        moved = self._bank.fold_row(plan, row, evaluated, folds, self._rate_lo, self._rate_hi)
        for i, rate in moved:
            self._requantise(i, rate)
        skipped = len(plan) - len(moved)
        self.refresh_skipped += skipped
        if self._context is not None:
            self._context.refresh_skipped += skipped

    def update(
        self,
        outcomes: Mapping[str, PredicateOutcome],
        *,
        positive: bool,
        in_guard_band: bool,
    ) -> None:
        """Fold one clip's outcome map into the estimators and refresh
        quotas — :meth:`fold` over a one-row block.

        Short-circuit-skipped predicates advance the estimator clock with
        rate-preserving imputation; so do ``hold_last_estimate`` replays
        (degraded outcomes): replayed counts are not fresh evidence, and a
        flapping detector must not poison the background estimate (Eq. 6).
        """
        start = time.perf_counter()
        plan = self._clip_plan
        evaluated = bytearray(len(plan))
        for at, label in enumerate(self._trackers):
            outcome = outcomes.get(label)
            if outcome is not None and outcome.evaluated and not outcome.degraded:
                assert outcome.units == plan[at][2], "a clip's units are its window"
                evaluated[at] = 1
                plan[at][1][0] = outcome.count
        self.fold(plan, 0, evaluated, positive, in_guard_band)
        if self._context is not None:
            self._context.add_stage_time(STAGE_ESTIMATOR, time.perf_counter() - start)
