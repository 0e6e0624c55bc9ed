"""Quota policies — the axis that distinguishes SVAQ from SVAQD.

Algorithms 1 and 3 share one loop (evaluate clip → update quotas →
assemble sequences); what differs is *where the critical values come
from*.  :class:`StaticQuotaPolicy` fixes them once from the a-priori
``p₀`` (Eq. 5 — Algorithm 1); :class:`DynamicQuotaPolicy` re-derives them
per clip from kernel-estimated background probabilities (Algorithm 3,
wrapping :class:`repro.core.dynamics.QuotaManager`).  The unified
:class:`repro.core.session.StreamSession` is parameterised by a policy, so
the same pipeline serves both algorithms, conjunctive and CNF queries alike.

Both policies checkpoint: :meth:`QuotaPolicy.state_dict` /
:meth:`QuotaPolicy.load_state_dict` round-trip through JSON, which is what
makes checkpoint/resume work for *every* online algorithm rather than
SVAQD alone.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.config import OnlineConfig
from repro.core.dynamics import QuotaManager
from repro.core.indicators import PredicateOutcome
from repro.errors import ConfigurationError
from repro.scanstats.critical import CriticalValueTable, critical_value
from repro.video.model import VideoGeometry
from repro._typing import StateDict

if TYPE_CHECKING:
    from repro.core.context import ExecutionContext


def derive_static_quotas(
    frame_labels: Iterable[str],
    action_labels: Iterable[str],
    geometry: VideoGeometry,
    config: OnlineConfig,
    overrides: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Algorithm 1's ``k_crit_o_init`` / ``k_crit_a_init`` per predicate.

    ``overrides`` pins critical values for individual labels (Algorithm 1
    allows "each [predicate] may have its own initial values").  An
    explicit override of ``0`` is honoured — membership decides, not
    truthiness — so callers can disable a quota outright.
    """
    overrides = overrides or {}
    frames_per_clip = geometry.frames_per_clip
    shots_per_clip = geometry.shots_per_clip
    shot_horizon = max(
        shots_per_clip, config.horizon_ou // geometry.frames_per_shot
    )
    burstiness = config.markov_burstiness

    def initial(p0: float, w: int, n: int) -> int:
        if burstiness is not None and burstiness > 1.0:
            # The bursty-noise prior binds SVAQ as it does SVAQD: the
            # value SVAQD's table starts from (footnote 7).
            return CriticalValueTable(
                w=w, n=n, alpha=config.alpha, burstiness=burstiness
            ).lookup(p0)
        return critical_value(p0, w, n, config.alpha)

    values: dict[str, int] = {}
    for label in frame_labels:
        if label in overrides:
            values[label] = int(overrides[label])
        else:
            values[label] = initial(
                config.object_p0, frames_per_clip, config.horizon_ou
            )
    for label in action_labels:
        if label in overrides:
            values[label] = int(overrides[label])
        else:
            values[label] = initial(
                config.action_p0, shots_per_clip, shot_horizon
            )
    return values


class QuotaPolicy(ABC):
    """Where a streaming run's per-predicate critical values come from."""

    #: Dynamic policies refresh quotas from observed data, so the session
    #: probes periodically (full evaluation without short-circuiting) to
    #: keep every predicate's estimator fed; static policies never probe.
    dynamic: bool = False

    #: Checkpoint discriminator written into :meth:`state_dict` and checked
    #: on restore, so a checkpoint taken under one policy flavour cannot be
    #: silently loaded into another.
    kind: str = "static"

    @abstractmethod
    def quotas(self) -> dict[str, int]:
        """Current ``k_crit`` per predicate label."""

    @abstractmethod
    def update(
        self,
        outcomes: Mapping[str, PredicateOutcome],
        *,
        positive: bool,
        in_guard_band: bool,
    ) -> None:
        """Fold one clip's outcomes into the policy state."""

    def rates(self) -> Mapping[str, float]:
        """Current background-probability estimates ({} when static)."""
        return {}

    def attach_context(self, context: "ExecutionContext") -> None:
        """Wire the session's execution context into the policy.

        Dynamic policies charge estimator/refresh wall time and
        bucket-skip counters to it; static policies have nothing to
        report, so the default is a no-op.
        """

    @abstractmethod
    def state_dict(self) -> StateDict:
        """JSON-serialisable snapshot of the policy's dynamic state."""

    @abstractmethod
    def load_state_dict(self, state: StateDict) -> None:
        """Restore from :meth:`state_dict` output."""


class StaticQuotaPolicy(QuotaPolicy):
    """Fixed critical values — Algorithm 1's behaviour."""

    dynamic = False
    kind = "static"

    def __init__(self, quotas: Mapping[str, int]) -> None:
        if not quotas:
            raise ConfigurationError("static quota policy needs >= 1 label")
        self._quotas = {label: int(k) for label, k in quotas.items()}

    @classmethod
    def from_config(
        cls,
        frame_labels: Iterable[str],
        action_labels: Iterable[str],
        geometry: VideoGeometry,
        config: OnlineConfig,
        overrides: Mapping[str, int] | None = None,
    ) -> "StaticQuotaPolicy":
        return cls(
            derive_static_quotas(
                frame_labels, action_labels, geometry, config, overrides
            )
        )

    def quotas(self) -> dict[str, int]:
        return dict(self._quotas)

    def update(
        self,
        outcomes: Mapping[str, PredicateOutcome],
        *,
        positive: bool,
        in_guard_band: bool,
    ) -> None:
        """Static quotas never move; the update is a no-op by design."""

    def state_dict(self) -> StateDict:
        return {"kind": self.kind, "quotas": dict(self._quotas)}

    def load_state_dict(self, state: StateDict) -> None:
        self._quotas = {
            label: int(k) for label, k in state["quotas"].items()
        }


#: Sentinel quota value for :class:`ConsumableQuotaPolicy` rows that never
#: exhaust (an unmetered tenant keeps its ledger row for reporting).
UNLIMITED = -1


class ConsumableQuotaPolicy(StaticQuotaPolicy):
    """Static quotas that *deplete* as units are consumed.

    The online sessions compare counts against a quota per clip and move
    on; an admission ledger instead spends a quota down — a tenant's
    concurrent-query slots, a model-unit budget.  This policy keeps the
    static quota table (one integer per label) and adds a consumed-units
    column next to it, reusing the same checkpointable machinery the
    streaming policies already have so service admission state rides in
    migration bundles exactly like session quota state does.

    A quota of ``UNLIMITED`` (-1) never exhausts — membership in the
    table still names the ledger row, mirroring how
    :func:`derive_static_quotas` treats explicit overrides.
    """

    kind = "consumable"

    def __init__(
        self,
        quotas: Mapping[str, int],
        used: Mapping[str, int] | None = None,
    ) -> None:
        super().__init__(quotas)
        self._used: dict[str, int] = {label: 0 for label in self._quotas}
        for label, n in (used or {}).items():
            self._check_label(label)
            self._used[label] = int(n)

    def _check_label(self, label: str) -> None:
        if label not in self._quotas:
            raise ConfigurationError(
                f"unknown ledger label {label!r}; "
                f"have {sorted(self._quotas)}"
            )

    def consume(self, label: str, n: int = 1) -> None:
        """Spend ``n`` units of ``label``'s quota (may go over — callers
        check :meth:`exhausted` *before* admitting more work)."""
        self._check_label(label)
        if n < 0:
            raise ConfigurationError(f"consume units must be >= 0; got {n}")
        self._used[label] += n

    def release(self, label: str, n: int = 1) -> None:
        """Return ``n`` units (a cancelled query frees its slot)."""
        self._check_label(label)
        if n < 0:
            raise ConfigurationError(f"release units must be >= 0; got {n}")
        self._used[label] = max(0, self._used[label] - n)

    def used(self, label: str) -> int:
        self._check_label(label)
        return self._used[label]

    def remaining(self, label: str) -> int | None:
        """Units left before exhaustion; ``None`` when unlimited."""
        self._check_label(label)
        if self._quotas[label] == UNLIMITED:
            return None
        return max(0, self._quotas[label] - self._used[label])

    def exhausted(self, label: str) -> bool:
        self._check_label(label)
        quota = self._quotas[label]
        return quota != UNLIMITED and self._used[label] >= quota

    def state_dict(self) -> StateDict:
        return {
            "kind": self.kind,
            "quotas": dict(self._quotas),
            "used": dict(self._used),
        }

    def load_state_dict(self, state: StateDict) -> None:
        super().load_state_dict(state)
        self._used = {label: 0 for label in self._quotas}
        for label, n in state.get("used", {}).items():
            self._check_label(label)
            self._used[label] = int(n)


class DynamicQuotaPolicy(QuotaPolicy):
    """Kernel-estimated background probabilities — Algorithm 3's behaviour."""

    dynamic = True
    kind = "dynamic"
    #: A private manager's updates are always this policy's to make (a
    #: fleet's :class:`~repro.core.ratebook.SharedQuotaPolicy` may be a
    #: passive reader of its group's).
    active = True

    def __init__(self, manager: QuotaManager) -> None:
        self._manager = manager

    @classmethod
    def from_config(
        cls,
        frame_labels: Iterable[str],
        action_labels: Iterable[str],
        geometry: VideoGeometry,
        config: OnlineConfig,
    ) -> "DynamicQuotaPolicy":
        return cls(QuotaManager(frame_labels, action_labels, geometry, config))

    @property
    def manager(self) -> QuotaManager:
        return self._manager

    def attach_context(self, context: "ExecutionContext") -> None:
        self._manager.set_context(context)

    def quotas(self) -> dict[str, int]:
        return self._manager.quotas()

    def rates(self) -> Mapping[str, float]:
        return self._manager.rates()

    def update(
        self,
        outcomes: Mapping[str, PredicateOutcome],
        *,
        positive: bool,
        in_guard_band: bool,
    ) -> None:
        self._manager.update(
            outcomes, positive=positive, in_guard_band=in_guard_band
        )

    def state_dict(self) -> StateDict:
        return {"kind": self.kind, **self._manager.state_dict()}

    def load_state_dict(self, state: StateDict) -> None:
        self._manager.load_state_dict(state)


def policy_from_state_dict(state: StateDict, fallback: QuotaPolicy) -> QuotaPolicy:
    """Validate that a checkpointed policy state matches the session's
    configured policy kind, then restore it in place."""
    kind = state.get("kind")
    expected = fallback.kind
    if kind != expected:
        raise ConfigurationError(
            f"checkpoint holds a {kind!r} quota policy but the session was "
            f"built with a {expected!r} one"
        )
    fallback.load_state_dict(state)
    return fallback
