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
one :class:`~repro.core.dynamics.QuotaManager`.  A fleet shares only when
it walks a :class:`~repro.core.session.ChunkFeed`: there a group is one
:class:`~repro.core.indicators.RowStepper` whose block every member reads,
and the stepper updates the manager as it produces the row — the cadence
of a solo session.  Only the group's first-registered member (the *owner*)
updates, so its context books the bucket-skip counts and the Eq. 6 time,
as a solo run's does.  Results are bit-identical to serial execution:
duplicates observe identical outcomes, so one update stands for all.

Sharing is an optimisation with an exit: a cancelled member
:meth:`~SharedQuotaPolicy.detach`\\ es onto a private manager seeded from
the shared state before it finishes (its final update must not leak into
surviving members).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.core.config import OnlineConfig
from repro.core.dynamics import QuotaManager
from repro.core.indicators import PredicateOutcome
from repro.core.policies import DynamicQuotaPolicy
from repro.errors import ConfigurationError
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
    #: Builds a manager like the group's, for a member that detaches.
    spawn: Callable[[], QuotaManager]
    manager: QuotaManager
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
    same manager — idempotent by construction.
    """

    def __init__(self, name: str, group: _RateGroup, *, active: bool) -> None:
        super().__init__(group.manager)
        self.name = name
        self._group: _RateGroup | None = group
        #: Whether this member's updates drive the estimators (the owner's).
        self._active = active
        self._context: "ExecutionContext | None" = None

    def attach_context(self, context: "ExecutionContext") -> None:
        self._context = context
        if self._active:
            self._manager.context = context

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
        assert group is not None, "detached twice"
        private = group.spawn()
        private.load_state_dict(group.manager.state_dict())
        private.context = self._context
        self._manager = private
        self._group = None
        self._active = True


class SharedRateBook:
    """Fleet-wide registry of rate groups: which members share which
    :class:`~repro.core.dynamics.QuotaManager`, and who owns it."""

    def __init__(self) -> None:
        self._groups: dict[object, _RateGroup] = {}
        self._members: dict[str, SharedQuotaPolicy] = {}
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

        The first member of a new key builds the group's manager and
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
            spawn = partial(
                QuotaManager, tuple(frame_labels), tuple(action_labels), geometry, config
            )
            group = self._groups[key] = _RateGroup(key, spawn, spawn())
        policy = SharedQuotaPolicy(name, group, active=not group.members)
        group.members.append(policy)
        self._members[name] = policy
        return policy

    def release(self, name: str) -> None:
        """Retire one member (no-op for names the book never admitted).

        The released policy detaches onto a private manager so its
        session's finish sequence cannot touch the shared series.  If it
        owned its group, the next member inherits ownership (and books the
        group's counters from then on); if it was the last member, the
        group and its manager go.
        """
        policy = self._members.pop(name, None)
        if policy is None or policy._group is None:
            return
        group = policy._group
        group.members.remove(policy)
        was_active = policy._active
        policy.detach()
        if not group.members:
            del self._groups[group.key]
        elif was_active:
            heir = group.members[0]
            heir._active = True
            if heir._context is not None:
                group.manager.context = heir._context

    # -- observability -----------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """The sharing topology: live groups and their members."""
        return {
            "groups": float(len(self._groups)),
            "members": float(len(self._members)),
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

    def load_state_dict(
        self, state: StateDict | RateBookState, members: Mapping[str, object]
    ) -> None:
        """Prime a fresh book so re-admission reproduces the grouping.

        Must run *before* the fleet re-registers its sessions: each listed
        member's next :meth:`admit` is redirected to its checkpointed
        group regardless of the group key the caller derives live (the
        live key embeds the *current* stream position, which differs from
        the original registration position).  ``members`` maps each live
        query to what the members of one group must hold alike (the fleet
        passes the spec minus its name and the session checkpoint); a
        group naming a query not in it, differing members or a name listed
        twice would join queries that never shared a series, and is
        refused.
        """
        if self._members:
            raise ConfigurationError("rate-book state must load into a fresh book")
        groups = read_record(RateBookState, state, "rate book").groups
        self._restore_keys = {}
        for index, names in enumerate(groups):
            held = [members.get(name) for name in names]
            if (
                any(member is None or member != held[0] for member in held)
                or len(set(names)) < len(names)
                or not self._restore_keys.keys().isdisjoint(names)
            ):
                raise ConfigurationError(
                    f"fleet checkpoint.rate_book.groups[{index}] joins "
                    f"queries that never shared a rate series: {names}"
                )
            self._restore_keys.update((name, ("restored", index)) for name in names)
