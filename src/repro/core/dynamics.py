"""Dynamic background-probability management for SVAQD sessions,
conjunctive and CNF alike.

One :class:`QuotaManager` owns, per query predicate, a kernel rate
estimator (§3.3) and the :class:`~repro.scanstats.critical.Quota` that
turns its rate into the detection quota (Eq. 5 at ``alpha``), read from
the process's shared table for the predicate's ``(w, n, alpha)``.  The
update policy — which clips count as null data — is documented on
:meth:`QuotaManager.update`; every dynamic
:class:`repro.core.session.StreamSession` (Algorithm 3) drives it alike.

The estimators are the rows of the manager's own
:class:`repro.scanstats.kernel.KernelRateBank`, in the trackers' order,
and a clip's update is one
:meth:`~repro.scanstats.kernel.KernelRateBank.fold_row` call over the bank
— per row the scalar Eq. 6 update, its rate computed once and tested
against the interval of the tracker's last bucket, and the table read in
the same loop when it left it.  The row is one row of a block, read
through a :meth:`QuotaManager.plan` compiled once per block: the block
path's row stepper calls the bank itself; :meth:`QuotaManager.update` (a
clip's outcome map) and :meth:`~QuotaManager.rates` fold one-row blocks,
and so does a rebuild, which reads every quota afresh.  It is
bit-identical to one scalar
:class:`~repro.scanstats.kernel.KernelRateEstimator` per label (the
kernel-bank property suite pins this).
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
from repro.scanstats.critical import Quota, critical_table
from repro.scanstats.kernel import EstimatorState, KernelRateBank, KernelRateEstimator, PlanRow
from repro.utils.validation import read_record, write_record
from repro.video.model import VideoGeometry
from repro._typing import StateDict

if TYPE_CHECKING:
    from repro.core.context import ExecutionContext


def label_specs(
    frame_labels: Iterable[str],
    action_labels: Iterable[str],
    geometry: VideoGeometry,
    config: OnlineConfig,
) -> dict[str, tuple[float, float, int, int]]:
    """Per predicate label, ``(bandwidth, p0, w, n)``: its Eq. 6 kernel
    volume and prior and its Eq. 5 window and horizon — an object counts
    frames, an action shots.  A label named twice keeps its first position
    and its last definition."""
    shots, frames_per_shot = geometry.shots_per_clip, geometry.frames_per_shot
    specs = {
        label: (
            config.kernel_bandwidth_ou, config.object_p0, geometry.frames_per_clip,
            config.horizon_ou,
        )
        for label in frame_labels
    }
    for label in action_labels:
        specs[label] = (
            max(1.0, config.kernel_bandwidth_ou / frames_per_shot), config.action_p0,
            shots, max(shots, config.horizon_ou // frames_per_shot),
        )
    return specs


@dataclass(frozen=True)
class ManagerState:
    """:meth:`QuotaManager.state_dict`: an interchange row per label."""

    estimators: dict[str, EstimatorState]


class QuotaManager:
    """Per-predicate dynamic quotas for one streaming run."""

    #: Not checkpointed (RL002): rebuilt from constructor arguments — the
    #: caller reconstructs the manager with the same labels/geometry/config
    #: before ``load_state_dict``, and the tracker list, bank, fold plans,
    #: policy table and accounting hook are all derived state.  The estimator
    #: payload itself rides in ``state_dict()["estimators"]``.
    _CHECKPOINT_EXCLUDE = frozenset(
        {"trackers", "bank", "context", "fold_on", "_windows", "_idle_plan", "refresh_skipped"}
    )

    def __init__(
        self,
        frame_labels: Iterable[str],
        action_labels: Iterable[str],
        geometry: VideoGeometry,
        config: OnlineConfig,
    ) -> None:
        specs = label_specs(frame_labels, action_labels, geometry, config)
        # The estimators are the rows of the manager's own bank, in order.
        self.bank = KernelRateBank.from_estimators(
            [
                KernelRateEstimator(bandwidth=bandwidth, initial_p=initial_p)
                for bandwidth, initial_p, _, _ in specs.values()
            ]
        )
        self._trackers = {
            label: Quota(critical_table(w, n, config.alpha, config.markov_burstiness))
            for label, (_, _, w, n) in specs.items()
        }
        #: The trackers in bank-row order: a fold's ``quotas``.
        self.trackers = list(self._trackers.values())
        #: The execution context charged for estimator time and skips.
        self.context: "ExecutionContext | None" = None
        policy = config.update_on
        #: Whether a clip's evaluated counts fold, by ``[positive][in_guard_band]``
        #: (see :meth:`update`).
        self.fold_on = tuple(
            tuple(
                policy == "all" or (p if policy == "positive" else not (p or g))
                for g in (False, True)
            )
            for p in (False, True)
        )
        #: Label lookups skipped by the bucket-skip fast path (observable
        #: per manager; also mirrored into the attached context).
        self.refresh_skipped = 0
        self._compile()

    def _compile(self) -> None:
        """Compile the update windows (a clip's units are its table's
        ``w``) and the idle one-row plan (it moves no row), then empty
        every tracker's interval and read each quota from its rate."""
        n = len(self.trackers)
        self._windows = self.bank.windows([t.table.w for t in self.trackers])
        self._idle_plan = [(i, [0], *w) for i, w in enumerate(self.bank.windows([0] * n))]
        for tracker in self.trackers:
            tracker.lo, tracker.hi = math.inf, -math.inf
        self.skipped(
            n - len(self.bank.fold_row(self._idle_plan, 0, bytearray(n), False, self.trackers))
        )

    # -- queries -----------------------------------------------------------------

    def quotas(self) -> dict[str, int]:
        """Current ``k_crit`` per predicate label."""
        return {label: t.k_crit for label, t in self._trackers.items()}

    def rates(self) -> dict[str, float]:
        """Current background-probability estimates per label."""
        spare = [Quota(tracker.table) for tracker in self.trackers]  # empty: every rate comes back
        moved = self.bank.fold_row(self._idle_plan, 0, bytearray(len(spare)), False, spare)
        return {label: rate for label, (_, rate) in zip(self._trackers, moved, strict=True)}

    def tracker(self, label: str) -> Quota:
        return self._trackers[label]

    def skipped(self, count: int) -> None:
        """Book ``count`` label lookups the interval test saved."""
        self.refresh_skipped += count
        if self.context is not None:
            self.context.refresh_skipped += count

    def labels(self) -> tuple[str, ...]:
        """Tracked predicate labels, in registration order."""
        return tuple(self._trackers)

    # -- checkpointing -----------------------------------------------------------

    def state(self) -> ManagerState:
        """Every estimator: per label, its bank row in the scalar
        interchange format (:class:`~repro.scanstats.kernel.EstimatorState`)."""
        rows = self.bank.state_row
        return ManagerState({label: rows(row) for row, label in enumerate(self._trackers)})

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
        for row, label in enumerate(self._trackers):
            self.bank.load_row(row, entries[label])
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

    def clip(
        self, outcomes: Mapping[str, PredicateOutcome]
    ) -> tuple[list[PlanRow], int, bytearray]:
        """One clip's outcome map as a one-row block, the leading arguments
        of a :meth:`~repro.scanstats.kernel.KernelRateBank.fold_row` call:
        its plan, row 0 and which labels it evaluated.  Short-circuit-
        skipped predicates count as not evaluated, and so do
        ``hold_last_estimate`` replays (degraded outcomes): replayed counts
        are not fresh evidence, and a flapping detector must not poison the
        background estimate (Eq. 6)."""
        plan: list[PlanRow] = []
        evaluated = bytearray(len(self._windows))
        for at, (label, window) in enumerate(zip(self._trackers, self._windows)):
            outcome = outcomes.get(label)
            count = 0
            if outcome is not None and outcome.evaluated and not outcome.degraded:
                assert outcome.units == window[0], "a clip's units are its window"
                evaluated[at], count = 1, outcome.count
            plan.append((at, [count], *window))
        return plan, 0, evaluated

    def update(
        self,
        outcomes: Mapping[str, PredicateOutcome],
        *,
        positive: bool,
        in_guard_band: bool,
    ) -> None:
        """Fold one clip's outcome map (:meth:`clip`) into the estimators
        and refresh the quotas.

        The clip's evaluated counts are folded as null data only when the
        clip is: under the default ``update_on="negative"`` policy a clip
        is credibly null data (§3.2 defines the background over stretches
        where the query predicates are not satisfied) when it is
        query-negative and not adjacent to a detection
        (``in_guard_band``) — :attr:`fold_on`.  Every other label advances
        with rate-preserving imputation.  Only the trackers whose rate left
        its bucket read their quota.
        """
        start = time.perf_counter()
        folds = self.fold_on[bool(positive)][bool(in_guard_band)]
        moved = self.bank.fold_row(*self.clip(outcomes), folds, self.trackers)
        self.skipped(len(self.trackers) - len(moved))
        if self.context is not None:
            self.context.add_stage_time(STAGE_ESTIMATOR, time.perf_counter() - start)
