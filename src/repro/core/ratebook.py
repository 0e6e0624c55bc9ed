"""Fleet-shared kernel rate estimation — SVAQD's analogue of the
detection-score cache.

A fleet of standing queries routinely contains duplicates: the same query
shape registered by several subscribers against one stream.  Each SVAQD
session then runs an identical kernel rate estimator (§3.3) over identical
outcomes and re-derives identical critical values — per-label estimator
and refresh cost scales with the number of *queries* even though the
*information* is shared, exactly the redundancy
:class:`~repro.detectors.cache.DetectionScoreCache` removes on the model
side.

:class:`SharedRateBook` removes it on the estimator side.  Dynamic
sessions admitted under the same *group key* (canonical query shape +
registration position — see :meth:`repro.core.scheduler.FleetRun`) share
one :class:`~repro.core.dynamics.QuotaManager` whose estimator rows live
in one fleet-wide :class:`~repro.scanstats.kernel.KernelRateBank`.  Per
clip, only the group's first-registered member (the *owner*) composes an
update; the book collects every group's update and folds them into the
bank once at the end of the clip (:meth:`flush` — each group's rows
through :meth:`QuotaManager.step_rows`), refreshing quotas once per
(label, clip) with the bucket-skip fast path.  Results are bit-identical
to serial execution: duplicates observe identical outcomes, so one update
stands for all, and the end-of-clip flush preserves the serial
read-then-update cadence (every session reads quotas that reflect folds
through the previous clip's pending evaluation, never the current one).

Sharing is an optimisation with exits: a cancelled member
:meth:`~SharedQuotaPolicy.detach`\\ es onto a private manager seeded from
the shared state before it finishes (its final update must not leak into
surviving members), and :meth:`seal` flips the remaining managers to
immediate mode for the fleet's finish sequence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.core.config import OnlineConfig
from repro.core.dynamics import QuotaManager
from repro.core.indicators import PredicateOutcome
from repro.core.policies import DynamicQuotaPolicy
from repro.errors import ConfigurationError
from repro.scanstats.kernel import KernelRateBank
from repro.utils.validation import read_record, write_record
from repro.video.model import VideoGeometry
from repro._typing import StateDict

if TYPE_CHECKING:
    from repro.core.context import ExecutionContext

__all__ = ["SharedQuotaPolicy", "SharedRateBook"]


@dataclass(frozen=True)
class RateBookState:
    """:meth:`SharedRateBook.state_dict`: the member names of each group."""

    groups: list[list[str]]


@dataclass
class _RateGroup:
    """One equivalence class of queries sharing a rate series."""

    key: object
    manager: QuotaManager
    frame_labels: tuple[str, ...]
    action_labels: tuple[str, ...]
    geometry: VideoGeometry
    config: OnlineConfig
    #: Member policies in admission order; the first is the *owner*, whose
    #: updates drive the shared estimators (the rest are no-ops — their
    #: sessions see identical outcomes by construction of the group key).
    members: "list[SharedQuotaPolicy]" = field(default_factory=list)


class SharedQuotaPolicy(DynamicQuotaPolicy):
    """A dynamic quota policy whose manager is shared across a rate group.

    Checkpoint-compatible with :class:`~repro.core.policies.DynamicQuotaPolicy`
    (same ``kind``, same payload, the same reads and writes): a session
    checkpointed while sharing restores into a private dynamic policy and
    vice versa — sharing is a runtime topology, not a state format.  Every
    member of a restored group loads the same estimator payload into the
    same bank rows — idempotent by construction.
    """

    def __init__(
        self, name: str, group: _RateGroup, *, active: bool
    ) -> None:
        super().__init__(group.manager)
        self.name = name
        self._group: _RateGroup | None = group
        self._active = active
        self._context: "ExecutionContext | None" = None

    @property
    def shared(self) -> bool:
        """Whether this policy still rides its group's shared manager."""
        return self._group is not None

    @property
    def active(self) -> bool:  # type: ignore[override]
        """Whether this member's updates drive the estimators."""
        return self._active

    def attach_context(self, context: "ExecutionContext") -> None:
        self._context = context
        if self._active:
            self._manager.set_context(context)

    def update(
        self,
        outcomes: Mapping[str, PredicateOutcome],
        *,
        positive: bool,
        in_guard_band: bool,
    ) -> None:
        if self._active:
            self._manager.update(
                outcomes, positive=positive, in_guard_band=in_guard_band
            )

    def detach(self) -> None:
        """Leave the shared rate series for a private continuation.

        Builds a private :class:`~repro.core.dynamics.QuotaManager` seeded
        from the shared state (exact float round-trip through the scalar
        interchange format) and redirects this policy at it.  From here on
        the policy updates like any solo dynamic session — which is
        precisely what a cancelled member needs before its final quota
        update, so that update cannot leak into surviving members.
        """
        group = self._group
        if group is None:
            return
        private = QuotaManager(
            group.frame_labels, group.action_labels,
            group.geometry, group.config,
        )
        private.load_state_dict(group.manager.state())
        if self._context is not None:
            private.set_context(self._context)
        self._manager = private
        self._group = None
        self._active = True


class SharedRateBook:
    """Fleet-wide registry of shared rate series and their single flush.

    One :class:`~repro.scanstats.kernel.KernelRateBank` spans every
    admitted group's estimator rows; :meth:`flush` folds all pending
    per-clip updates and refreshes only the rows whose rate left its last
    quantised bucket (each group's manager keeps that bucket-skip memo).
    """

    #: Not checkpointed (RL002): the bank is rebuilt by re-admitting the
    #: fleet's sessions (whose own checkpoints carry the estimator
    #: payloads); the pending queue is empty at every checkpoint boundary
    #: (each advance step ends with a flush); the counters are
    #: process-local observability.
    _CHECKPOINT_EXCLUDE = frozenset(
        {
            "_bank",
            "_pending",
            "_live_rows",
            "refresh_skipped",
            "estimator_s",
        }
    )

    def __init__(self) -> None:
        self._bank = KernelRateBank()
        self._groups: dict[object, _RateGroup] = {}
        self._members: dict[str, SharedQuotaPolicy] = {}
        self._pending: list[
            tuple[QuotaManager, Sequence[int], Sequence[int], Sequence[bool]]
        ] = []
        #: Bank rows of groups that still have members.
        self._live_rows = 0
        #: Label refreshes skipped by the bucket-skip fast path.
        self.refresh_skipped = 0
        #: Wall time of the flushes.  The row walk fuses Eq. 6 with the
        #: quota refresh, so all of it is estimator time.
        self.estimator_s = 0.0
        #: Member name -> group key overrides installed by
        #: :meth:`load_state_dict` so re-admission reproduces the
        #: checkpointed grouping regardless of the live group-key inputs.
        self._restore_keys: dict[str, object] = {}

    # -- membership --------------------------------------------------------------

    def admit(
        self,
        group_key: object,
        name: str,
        frame_labels: Iterable[str],
        action_labels: Iterable[str],
        geometry: VideoGeometry,
        config: OnlineConfig,
    ) -> SharedQuotaPolicy:
        """Join ``name`` to the rate group of ``group_key``.

        The first member of a new key allocates the group's bank rows and
        becomes its owner; later members share the series as passive
        readers.  Callers guarantee that members of one key observe
        identical per-clip outcomes (the scheduler keys on canonical query
        shape + registration position), which is what makes one member's
        update stand for all.
        """
        if name in self._members:
            raise ConfigurationError(
                f"query {name!r} already holds a shared rate series"
            )
        key = self._restore_keys.pop(name, group_key)
        group = self._groups.get(key)
        if group is None:
            frames = tuple(frame_labels)
            actions = tuple(action_labels)
            manager = QuotaManager(
                frames, actions, geometry, config, bank=self._bank
            )
            manager.set_sink(self)
            self._live_rows += len(manager.labels())
            group = _RateGroup(
                key=key, manager=manager, frame_labels=frames,
                action_labels=actions, geometry=geometry, config=config,
            )
            self._groups[key] = group
        policy = SharedQuotaPolicy(name, group, active=not group.members)
        group.members.append(policy)
        self._members[name] = policy
        return policy

    def release(self, name: str) -> None:
        """Retire one member (no-op for names the book never admitted).

        The released policy detaches onto a private manager so its
        session's finish sequence cannot touch the shared rows.  If it
        owned its group, the next member inherits ownership; if it was the
        last member, the group's rows are orphaned — never updated or
        refreshed again, though they keep their slots (the bank does not
        shrink).
        """
        policy = self._members.pop(name, None)
        if policy is None or policy._group is None:
            return
        group = policy._group
        group.members.remove(policy)
        was_active = policy.active
        policy.detach()
        if not group.members:
            self._live_rows -= len(group.manager.labels())
            del self._groups[group.key]
        elif was_active:
            heir = group.members[0]
            heir._active = True
            if heir._context is not None:
                group.manager.set_context(heir._context)

    def seal(self) -> None:
        """Flush and flip every group to immediate updates.

        Called once when the fleet finishes: each group's owner then
        applies its *final* quota update directly to the shared rows as
        its session closes (owners finish first — they registered first),
        so every later member's final rates read the completed series.
        """
        self.flush()
        for group in self._groups.values():
            group.manager.set_sink(None)

    # -- per-clip updates --------------------------------------------------------

    def enqueue(
        self,
        manager: QuotaManager,
        events: Sequence[int],
        units: Sequence[int],
        fold: Sequence[bool],
    ) -> None:
        """Collect one group's composed per-clip update (the sink hook)."""
        self._pending.append((manager, events, units, fold))

    def flush(self) -> None:
        """Fold all pending updates and refresh the rows that moved.

        Each pending group's rows go through
        :meth:`QuotaManager.step_rows` (Eq. 6 and the bucket-skip refresh
        in one walk, so all of it is booked as estimator time).  Rows
        without an update keep their rate, so their quotas stand untouched
        and count as skipped.  Runs after every clip's session loop, so
        all sessions read pre-flush quotas — the serial cadence.
        """
        if not self._pending:
            return
        start = time.perf_counter()
        skipped = self._live_rows
        for manager, events, units, fold in self._pending:
            skipped -= len(units) - manager.step_rows(events, units, fold)
        self._pending.clear()
        self.refresh_skipped += skipped
        self.estimator_s += time.perf_counter() - start

    # -- observability -----------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Live sharing/observability counters (process-local)."""
        return {
            "groups": float(len(self._groups)),
            "members": float(len(self._members)),
            "live_rows": float(self._live_rows),
            "refresh_skipped": float(self.refresh_skipped),
            "estimator_s": self.estimator_s,
        }

    # -- checkpointing -----------------------------------------------------------

    def state_dict(self) -> StateDict:
        """The grouping topology, JSON-serialisable.

        Estimator payloads deliberately do *not* ride here — every
        member's session checkpoint carries the group's shared state in
        the scalar interchange format (and restores it idempotently), so
        the book only has to remember *who shared with whom*.
        """
        return write_record(self.state())

    def state(self) -> RateBookState:
        return RateBookState([[m.name for m in group.members] for group in self._groups.values()])

    def load_state_dict(self, state: StateDict | RateBookState) -> None:
        """Prime a fresh book so re-admission reproduces the grouping.

        Must run *before* the fleet re-registers its sessions: each listed
        member's next :meth:`admit` is redirected to its checkpointed
        group regardless of the group key the caller derives live (the
        live key embeds the *current* stream position, which differs from
        the original registration position).
        """
        if self._members:
            raise ConfigurationError("rate-book state must load into a fresh book")
        groups = read_record(RateBookState, state, "rate book").groups
        self._restore_keys = {
            name: ("restored", index)
            for index, names in enumerate(groups)
            for name in names
        }
