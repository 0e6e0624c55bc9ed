"""Dynamic background-probability management for SVAQD sessions,
conjunctive and CNF alike.

One :class:`QuotaManager` owns, per query predicate, a kernel rate
estimator (§3.3) plus the critical-value table for its detection quota
(Eq. 5 at ``alpha``).  The update policy — which clips count as null data
— is documented on :meth:`QuotaManager.update`; every dynamic
:class:`repro.core.session.StreamSession` (Algorithm 3) drives it alike.

The estimators are the rows of the manager's own
:class:`repro.scanstats.kernel.KernelRateBank` (each tracker holds its row
index), and a clip's update is one pass of :meth:`QuotaManager.step_rows`
— per row the scalar Eq. 6 update, its rate computed once, and an
*incremental* quota refresh: every tracker remembers the open probability
interval of its last quantised bucket and skips the ``log10``/table pass
entirely while its rate stays strictly inside.  The block path's row
stepper and :meth:`QuotaManager.update` both go through it; it is
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
from repro.scanstats.critical import CriticalValueTable
from repro.scanstats.kernel import EstimatorState, KernelRateBank, KernelRateEstimator
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
    #: before ``load_state_dict``, and the tracker list, bank, bucket-skip
    #: memo and accounting hook are all derived state.  The estimator
    #: payload itself rides in ``state_dict()["estimators"]``.
    _CHECKPOINT_EXCLUDE = frozenset(
        {
            "_config",
            "_tracker_list",
            "_bank",
            "_context",
            "_rate_lo",
            "_rate_hi",
            "refresh_skipped",
        }
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
        self._invalidate_skip()
        #: Label lookups skipped by the bucket-skip fast path (observable
        #: per manager; also mirrored into the attached context).
        self.refresh_skipped = 0
        self.refresh_all()

    # -- wiring ------------------------------------------------------------------

    def set_context(self, context: "ExecutionContext | None") -> None:
        """Attach the execution context charged for estimator/refresh time."""
        self._context = context

    def _invalidate_skip(self) -> None:
        """Forget every tracker's bucket: the next refresh looks each up.
        (``_rate_lo``/``_rate_hi`` hold the open interval of a tracker's
        last quantised bucket; a rate strictly inside skips the lookup.)"""
        n = len(self._tracker_list)
        self._rate_lo: list[float] = [math.inf] * n
        self._rate_hi: list[float] = [-math.inf] * n

    # -- queries -----------------------------------------------------------------

    def quotas(self) -> dict[str, int]:
        """Current ``k_crit`` per predicate label."""
        return {label: t.k_crit for label, t in self._trackers.items()}

    def rates(self) -> dict[str, float]:
        """Current background-probability estimates per label."""
        rate_row = self._bank.rate_row
        return {label: rate_row(t.row) for label, t in self._trackers.items()}

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
        n = len(self._tracker_list)
        # A zero-unit update leaves a row as it is and returns its rate.
        self._count_skipped(self.step_rows([0] * n, [0] * n, [False] * n))

    def _requantise(self, i: int, rate: float) -> None:
        """Tracker ``i``'s rate left its bucket: look the quota up and
        remember the new bucket's safe interval."""
        tracker = self._tracker_list[i]
        table = tracker.table
        bucket = table.bucket_of(rate)
        tracker.k_crit = table.lookup_bucket(bucket)
        self._rate_lo[i], self._rate_hi[i] = table.bucket_bounds(bucket)

    def _count_skipped(self, skipped: int) -> None:
        self.refresh_skipped += skipped
        if self._context is not None:
            self._context.refresh_skipped += skipped

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
        self._invalidate_skip()
        self.refresh_all()

    # -- updates -----------------------------------------------------------------

    def folds(self, positive: bool, in_guard_band: bool) -> bool:
        """Whether a clip's evaluated counts are folded as null data.

        Under the default ``update_on="negative"`` policy a clip is
        credibly null data (§3.2 defines the background over stretches
        where the query predicates are not satisfied) when it is
        query-negative and not adjacent to a detection
        (``in_guard_band``)."""
        policy = self._config.update_on
        if policy == "all":
            return True
        if policy == "positive":
            return positive
        return not in_guard_band and not positive

    def update(
        self,
        outcomes: Mapping[str, PredicateOutcome],
        *,
        positive: bool,
        in_guard_band: bool,
    ) -> None:
        """Fold one clip into the estimators and refresh quotas.

        A predicate's counts feed its estimator only when the clip
        :meth:`folds`.  Everything else — short-circuit-skipped predicates
        included — advances the estimator clock with rate-preserving
        imputation; so do ``hold_last_estimate`` replays (degraded
        outcomes): replayed counts are not fresh evidence, and a flapping
        detector must not poison the background estimate (Eq. 6).
        """
        fold_clip = self.folds(positive, in_guard_band)
        events: list[int] = []
        units: list[int] = []
        fold: list[bool] = []
        for label, tracker in self._trackers.items():
            outcome = outcomes.get(label)
            if outcome is not None and outcome.evaluated:
                folded = fold_clip and not outcome.degraded
                events.append(outcome.count if folded else 0)
                units.append(outcome.units)
                fold.append(folded)
            else:
                events.append(0)
                units.append(tracker.table.w)
                fold.append(False)
        start = time.perf_counter()
        self.apply(events, units, fold)
        if self._context is not None:
            self._context.add_stage_time(
                STAGE_ESTIMATOR, time.perf_counter() - start
            )

    def apply(
        self,
        events: Sequence[int],
        units: Sequence[int],
        fold: Sequence[bool],
    ) -> None:
        """Apply one clip's composed update — per tracker, in order:
        ``fold`` rows observe ``events`` positives in ``units`` units, the
        rest advance by ``units`` — and refresh the quotas."""
        self._count_skipped(self.step_rows(events, units, fold))

    def step_rows(
        self,
        events: Sequence[int],
        units: Sequence[int],
        fold: Sequence[bool],
    ) -> int:
        """The scalar row update, once per tracker: Eq. 6 on the bank row,
        its rate computed once, the bucket-skip test, and only on a miss
        the table lookup.  Returns how many rows skipped the lookup."""
        update_row = self._bank.update_row
        rate_lo = self._rate_lo
        rate_hi = self._rate_hi
        skipped = 0
        for i, total in enumerate(units):
            rate = update_row(i, events[i], total, fold[i])
            # the test inlined: via a list of rates, 8-12 % slower
            if rate_lo[i] < rate < rate_hi[i]:
                skipped += 1
            else:
                self._requantise(i, rate)
        return skipped
