"""Dynamic background-probability management shared by SVAQD and the
compound-query executor.

One :class:`QuotaManager` owns, per query predicate, a kernel rate
estimator (§3.3) plus the critical-value table for its detection quota
(Eq. 5 at ``alpha``).  The update policy — which clips count as null data
— is documented on :meth:`QuotaManager.update`; SVAQD (Algorithm 3) and
:class:`repro.core.compound.CompoundOnline` drive it identically.

The estimators live in a :class:`repro.scanstats.kernel.KernelRateBank`
with :class:`~repro.scanstats.kernel.BankedRateEstimator` views in each
tracker, and a clip's update is one pass of :meth:`QuotaManager.step_rows`
— per row the scalar Eq. 6 update, its rate computed once, and an
*incremental* quota refresh: every tracker remembers the open probability
interval of its last quantised bucket and skips the ``log10``/table pass
entirely while its rate stays strictly inside.  The block path's row
stepper, :meth:`QuotaManager.update` and the rate book's flush all go
through it; it is bit-identical to the scalar reference path (the
equivalence suites pin this).

A manager normally owns a private bank; a
:class:`repro.core.ratebook.SharedRateBook` can instead allocate its rows
inside one fleet-wide bank and register itself as the manager's *sink*, in
which case :meth:`apply` enqueues the composed per-clip update for the
book's single end-of-clip flush rather than applying it immediately.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, Sequence, cast

from repro.core.config import OnlineConfig
from repro.core.context import STAGE_ESTIMATOR
from repro.core.indicators import PredicateOutcome
from repro.errors import ConfigurationError
from repro.scanstats.critical import CriticalValueTable
from repro.scanstats.kernel import (
    BankedRateEstimator,
    KernelRateBank,
    KernelRateEstimator,
)
from repro.video.model import VideoGeometry
from repro._typing import StateDict

if TYPE_CHECKING:
    from repro.core.context import ExecutionContext


class RateUpdateSink(Protocol):
    """Receiver for deferred per-clip estimator updates.

    A fleet-level rate book implements this to collect every member
    manager's composed update (per tracker: events, units, fold) and fold
    them into the shared bank once per clip (after all sessions have read
    the pre-update quotas — the same read-then-update cadence a serial
    session has).
    """

    def enqueue(
        self,
        manager: "QuotaManager",
        events: Sequence[int],
        units: Sequence[int],
        fold: Sequence[bool],
    ) -> None: ...


@dataclass
class PredicateTracker:
    """Estimator + critical-value table for one predicate; ``table``
    yields the detection quota ``k_crit``."""

    estimator: KernelRateEstimator | BankedRateEstimator
    table: CriticalValueTable
    k_crit: int = 0

    def refresh(self) -> None:
        self.k_crit = self.table.lookup(self.estimator.rate)


class QuotaManager:
    """Per-predicate dynamic quotas for one streaming run."""

    #: Not checkpointed (RL002): rebuilt from constructor arguments — the
    #: caller reconstructs the manager with the same labels/geometry/config
    #: before ``load_state_dict``, and the tracker list, bank wiring,
    #: bucket-skip memo and accounting hooks are all derived state.  The
    #: estimator payload itself rides in ``state_dict()["estimators"]``
    #: whether the rows live in a bank or in scalar estimators.
    _CHECKPOINT_EXCLUDE = frozenset(
        {
            "_config",
            "_tracker_list",
            "_uniform_buckets",
            "_bank",
            "_row0",
            "_banked",
            "_private_bank",
            "_label_index",
            "_sink",
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
        *,
        bank: KernelRateBank | None = None,
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
        self._trackers: dict[str, PredicateTracker] = {}
        for label in frame_labels:
            self._trackers[label] = self._make_tracker(
                bandwidth=config.kernel_bandwidth_ou,
                initial_p=config.object_p0,
                w=frames_per_clip,
                n=config.horizon_ou,
            )
        for label in action_labels:
            self._trackers[label] = self._make_tracker(
                bandwidth=shot_bandwidth,
                initial_p=config.action_p0,
                w=shots_per_clip,
                n=shot_horizon,
            )
        self._tracker_list = list(self._trackers.values())
        self._label_index = {
            label: i for i, label in enumerate(self._trackers)
        }
        # The incremental refresh assumes the stock bucketing; a caller
        # that swaps in tables with custom resolution/p_floor gets the
        # per-tracker reference path.
        quantisations = {
            (tracker.table.resolution, tracker.table.p_floor)
            for tracker in self._tracker_list
        }
        self._uniform_buckets = len(quantisations) <= 1
        # Move the estimators into a bank: a private one by default, or the
        # caller's shared bank (fleet rate sharing).  Trackers keep live
        # row views, so `tracker.estimator` stays a full estimator API.
        self._private_bank = bank is None
        self._bank = bank if bank is not None else KernelRateBank()
        rows = self._bank.extend(
            cast(
                "list[KernelRateEstimator]",
                [t.estimator for t in self._tracker_list],
            )
        )
        self._row0 = rows.start
        for offset, tracker in enumerate(self._tracker_list):
            tracker.estimator = BankedRateEstimator(
                self._bank, self._row0 + offset
            )
        self._banked = True
        self._sink: RateUpdateSink | None = None
        self._context: "ExecutionContext | None" = None
        #: Open interval of each tracker's last quantised bucket; a rate
        #: strictly inside skips the ``log10``/table pass on refresh.
        self._rate_lo: list[float] = [math.inf] * len(self._tracker_list)
        self._rate_hi: list[float] = [-math.inf] * len(self._tracker_list)
        #: Label lookups skipped by the bucket-skip fast path (observable
        #: per manager; also mirrored into the attached context).
        self.refresh_skipped = 0
        self.refresh_all()

    def _make_tracker(
        self, bandwidth: float, initial_p: float, w: int, n: int
    ) -> PredicateTracker:
        burstiness = self._config.markov_burstiness
        return PredicateTracker(
            estimator=KernelRateEstimator(bandwidth=bandwidth, initial_p=initial_p),
            table=CriticalValueTable(
                w=w, n=n, alpha=self._config.alpha, burstiness=burstiness
            ),
        )

    # -- wiring ------------------------------------------------------------------

    @property
    def bank(self) -> KernelRateBank:
        """The bank holding this manager's estimator rows."""
        return self._bank

    @property
    def bank_rows(self) -> range:
        """This manager's row span inside :attr:`bank`."""
        return range(self._row0, self._row0 + len(self._tracker_list))

    @property
    def steppable(self) -> bool:
        """Whether updates take :meth:`step_rows` — stock estimators in
        the bank and stock table bucketing.  A manager demoted by a
        custom-estimator checkpoint or swapped-in tables takes the
        per-tracker reference path, and its session stays per-clip."""
        return self._banked and self._uniform_buckets

    def set_sink(self, sink: RateUpdateSink | None) -> None:
        """Defer updates to ``sink`` (``None`` = apply immediately).

        Switching modes invalidates the bucket-skip memo: while deferred,
        quota refresh belongs to the sink, so the local memo may be stale.
        """
        self._sink = sink
        self._invalidate_skip()

    def set_context(self, context: "ExecutionContext | None") -> None:
        """Attach the execution context charged for estimator/refresh time."""
        self._context = context

    def _invalidate_skip(self) -> None:
        n = len(self._tracker_list)
        self._rate_lo = [math.inf] * n
        self._rate_hi = [-math.inf] * n

    # -- queries -----------------------------------------------------------------

    def quotas(self) -> dict[str, int]:
        """Current ``k_crit`` per predicate label."""
        return {label: t.k_crit for label, t in self._trackers.items()}

    def rates(self) -> dict[str, float]:
        """Current background-probability estimates per label."""
        return {label: t.estimator.rate for label, t in self._trackers.items()}

    def tracker(self, label: str) -> PredicateTracker:
        return self._trackers[label]

    def refresh_all(self) -> None:
        """Refresh every tracker's quotas from its current rate estimate.

        The fast path is incremental: a tracker whose rate is still
        strictly inside its last bucket's safe interval
        (:meth:`~repro.scanstats.critical.CriticalValueTable.bucket_bounds`)
        keeps its quotas without touching ``log10`` or the table memo —
        the same values ``tracker.refresh()`` would produce, because
        within a bucket the table is constant by construction.  Managers
        with non-uniform table quantisation (or demoted to scalar
        estimators by a custom-class checkpoint) take the per-tracker
        reference path on live tracker state.
        """
        trackers = self._tracker_list
        if not self.steppable:
            for tracker in trackers:
                tracker.refresh()
            # Quotas may have come from swapped-in tables; the skip memo
            # no longer describes them.
            self._invalidate_skip()
            return
        self._count_skipped(
            self.refresh_rows([t.estimator.rate for t in trackers])
        )

    def refresh_rows(self, rates: Sequence[float]) -> int:
        """Bucket-skip refresh of every tracker from its given rate;
        returns how many kept their quota without a table lookup."""
        rate_lo = self._rate_lo
        rate_hi = self._rate_hi
        skipped = 0
        for i, rate in enumerate(rates):
            if rate_lo[i] < rate < rate_hi[i]:
                skipped += 1
            else:
                self._requantise(i, rate)
        return skipped

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

    def state_dict(self) -> StateDict:
        """JSON-serialisable snapshot of every estimator.

        Each entry records the estimator *class* alongside its state so
        that restore rebuilds whatever estimator type was deployed — not a
        hardcoded default — and a checkpoint written with a custom
        estimator round-trips faithfully.  Bank rows serialise through
        their views in the scalar interchange format, so banked and
        scalar checkpoints are byte-compatible.
        """
        return {
            "estimators": {
                label: {
                    "class": _class_path(self._estimator_class(tracker)),
                    "state": tracker.estimator.state_dict(),
                }
                for label, tracker in self._trackers.items()
            }
        }

    @staticmethod
    def _estimator_class(tracker: PredicateTracker) -> type:
        cls = type(tracker.estimator)
        # A bank-row view is an implementation detail of *this* process;
        # checkpoints name the interchange class it restores as.
        return KernelRateEstimator if cls is BankedRateEstimator else cls

    def load_state_dict(self, state: StateDict) -> None:
        """Restore estimator states from :meth:`state_dict` output.

        Entries without a ``class`` tag (checkpoints from before the tag
        existed) restore as :class:`~repro.scanstats.kernel.KernelRateEstimator`
        and land back in the bank rows.  A checkpoint carrying a *custom*
        estimator class demotes the whole manager to the scalar reference
        path (the bank cannot hold foreign estimator types) — which is
        fine for a private manager but refused when the rows live in a
        shared fleet bank, since other queries read them.
        """
        resolved: dict[str, tuple[type, StateDict]] = {}
        for label, entry in state["estimators"].items():
            if "class" in entry:
                resolved[label] = (_resolve_class(entry["class"]), entry["state"])
            else:
                resolved[label] = (KernelRateEstimator, entry)
        custom = {
            label
            for label, (cls, _) in resolved.items()
            if cls is not KernelRateEstimator
        }
        if custom and not self._private_bank:
            raise ConfigurationError(
                f"checkpoint restores custom estimator classes for "
                f"{sorted(custom)} but this manager shares a fleet rate "
                f"bank; disable rate sharing to restore it"
            )
        if custom:
            # Demote: every tracker gets a standalone estimator and the
            # (now stale) private bank rows are abandoned.
            self._banked = False
            for label, (cls, est_state) in resolved.items():
                tracker = self._trackers[label]
                tracker.estimator = cls.from_state_dict(est_state)
                tracker.refresh()
            return
        for label, (_, est_state) in resolved.items():
            tracker = self._trackers[label]
            self._bank.load_row(
                self._row0 + self._label_index[label], est_state
            )
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
        if self._context is not None and self._sink is None:
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
        rest advance by ``units`` — and refresh the quotas.  With a sink
        attached it is enqueued for the sink's end-of-clip flush instead.
        """
        if not self.steppable:
            # The scalar reference (managers demoted off the fast path).
            for tracker, n_events, total, folded in zip(
                self._tracker_list, events, units, fold
            ):
                if folded:
                    tracker.estimator.observe_batch(n_events, total)
                else:
                    tracker.estimator.advance(total)
            self.refresh_all()
        elif self._sink is not None:
            self._sink.enqueue(self, events, units, fold)
        else:
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
        row = self._row0
        rate_lo = self._rate_lo
        rate_hi = self._rate_hi
        skipped = 0
        for i, total in enumerate(units):
            rate = update_row(row + i, events[i], total, fold[i])
            # refresh_rows' test inlined: via a list of rates, 8-12 % slower
            if rate_lo[i] < rate < rate_hi[i]:
                skipped += 1
            else:
                self._requantise(i, rate)
        return skipped


def _class_path(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_class(path: str) -> type:
    module_name, _, qualname = path.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj
