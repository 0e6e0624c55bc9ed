"""Dynamic background-probability management for SVAQD sessions,
conjunctive and CNF alike.

One :class:`QuotaManager` owns, per query predicate, a kernel rate
estimator (§3.3) plus the critical-value table for its detection quota
(Eq. 5 at ``alpha``).  The update policy — which clips count as null data
— is documented on :meth:`QuotaManager.update`; every dynamic
:class:`repro.core.session.StreamSession` (Algorithm 3) drives it alike.

The estimators are rows of a :class:`repro.scanstats.kernel.KernelRateBank`
(each tracker holds its row index), and a clip's update is one pass of
:meth:`QuotaManager.step_rows` — per row the scalar Eq. 6 update, its rate
computed once, and an *incremental* quota refresh: every tracker remembers
the open probability interval of its last quantised bucket and skips the
``log10``/table pass entirely while its rate stays strictly inside.  The
block path's row stepper, :meth:`QuotaManager.update` and the rate book's
flush all go through it; it is bit-identical to one scalar
:class:`~repro.scanstats.kernel.KernelRateEstimator` per label (the
kernel-bank property suite pins this).

A manager normally owns a private bank; a
:class:`repro.core.ratebook.SharedRateBook` can instead allocate its rows
inside one fleet-wide bank and register itself as the manager's *sink*, in
which case :meth:`apply` enqueues the composed per-clip update for the
book's single end-of-clip flush rather than applying it immediately.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, Sequence

from repro.core.config import OnlineConfig
from repro.core.context import STAGE_ESTIMATOR
from repro.core.indicators import PredicateOutcome
from repro.errors import ConfigurationError
from repro.scanstats.critical import CriticalValueTable
from repro.scanstats.kernel import KernelRateBank, KernelRateEstimator
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
    #: before ``load_state_dict``, and the tracker list, bank wiring,
    #: bucket-skip memo and accounting hooks are all derived state.  The
    #: estimator payload itself rides in ``state_dict()["estimators"]``.
    _CHECKPOINT_EXCLUDE = frozenset(
        {
            "_config",
            "_tracker_list",
            "_bank",
            "_row0",
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
        # The estimators are rows of a bank: a private one by default, or
        # the caller's shared bank (fleet rate sharing).
        self._bank = bank if bank is not None else KernelRateBank()
        rows = self._bank.extend(
            [
                KernelRateEstimator(bandwidth=bandwidth, initial_p=initial_p)
                for bandwidth, initial_p, _, _ in specs.values()
            ]
        )
        self._row0 = rows.start
        self._trackers = {
            label: PredicateTracker(
                row,
                CriticalValueTable(
                    w=w, n=n, alpha=config.alpha,
                    burstiness=config.markov_burstiness,
                ),
            )
            for row, (label, (_, _, w, n)) in zip(rows, specs.items())
        }
        self._tracker_list = list(self._trackers.values())
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

    # -- wiring ------------------------------------------------------------------

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

    def state_dict(self) -> StateDict:
        """JSON-serialisable snapshot of every estimator: per label, its
        bank row in the scalar interchange format
        (:meth:`~repro.scanstats.kernel.KernelRateEstimator.state_dict`)."""
        return {
            "estimators": {
                label: self._bank.state_dict_row(tracker.row)
                for label, tracker in self._trackers.items()
            }
        }

    def load_state_dict(self, state: StateDict) -> None:
        """Restore estimator states from :meth:`state_dict` output.

        A checkpoint is outside input (service bundles arrive over the
        wire): the entries must be exactly this manager's labels, each
        exactly an interchange dict — anything else is a
        :class:`~repro.errors.ConfigurationError`, and nothing a
        checkpoint names is ever imported or called.
        """
        entries = state.get("estimators")
        if not isinstance(entries, dict) or entries.keys() != self._trackers.keys():
            found = sorted(entries) if isinstance(entries, dict) else entries
            raise ConfigurationError(
                f"checkpoint holds estimators for {found!r} but this "
                f"session tracks {sorted(self._trackers)}"
            )
        for label, entry in entries.items():
            row = self._trackers[label].row
            malformed = f"malformed estimator checkpoint for {label!r}"
            if (
                not isinstance(entry, dict)
                or entry.keys() != self._bank.state_dict_row(row).keys()
            ):
                raise ConfigurationError(f"{malformed}: {entry!r}")
            try:
                self._bank.load_row(row, entry)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigurationError(f"{malformed}: {exc}") from exc
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
        if self._sink is not None:
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
            # the test inlined: via a list of rates, 8-12 % slower
            if rate_lo[i] < rate < rate_hi[i]:
                skipped += 1
            else:
                self._requantise(i, rate)
        return skipped
