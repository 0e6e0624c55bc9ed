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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Literal, Mapping

from repro.core.config import OnlineConfig
from repro.core.dynamics import ManagerState, QuotaManager, label_specs
from repro.core.indicators import PredicateOutcome
from repro.errors import ConfigurationError
from repro.scanstats.critical import critical_table, critical_value
from repro.utils.validation import read_record, write_record
from repro.video.model import VideoGeometry
from repro._typing import StateDict

if TYPE_CHECKING:
    from repro.core.context import ExecutionContext


@dataclass(frozen=True)
class StaticQuotas:
    """What each policy's ``state_dict`` writes (a session reads its own)."""

    kind: Literal["static"]
    quotas: dict[str, int]


@dataclass(frozen=True)
class DynamicQuotas(ManagerState):
    kind: Literal["dynamic"]


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
    burstiness = config.markov_burstiness
    values: dict[str, int] = {}
    for label, (_, p0, w, n) in label_specs(
        frame_labels, action_labels, geometry, config
    ).items():
        if label in overrides:
            values[label] = int(overrides[label])
        elif burstiness is not None and burstiness > 1.0:
            # The bursty-noise prior binds SVAQ as it does SVAQD: the
            # value SVAQD's table starts from (footnote 7).
            values[label] = critical_table(w, n, config.alpha, burstiness).lookup(p0)
        else:
            values[label] = critical_value(p0, w, n, config.alpha)
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
        return write_record(StaticQuotas("static", self._quotas))

    def load_state_dict(self, state: StateDict) -> None:
        quotas = read_record(StaticQuotas, state, "quota policy").quotas
        if quotas.keys() != self._quotas.keys():
            raise ConfigurationError(f"quotas for {sorted(quotas)}, not {sorted(self._quotas)}")
        self._quotas = quotas


class DynamicQuotaPolicy(QuotaPolicy):
    """Kernel-estimated background probabilities — Algorithm 3's behaviour."""

    dynamic = True
    kind = "dynamic"

    def __init__(self, manager: QuotaManager) -> None:
        self._manager = manager

    @property
    def manager(self) -> QuotaManager:
        return self._manager

    def attach_context(self, context: "ExecutionContext") -> None:
        self._manager.context = context

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
        return write_record(DynamicQuotas(self._manager.state().estimators, "dynamic"))

    def load_state_dict(self, state: StateDict) -> None:
        self._manager.load_state_dict(read_record(DynamicQuotas, state, "quota policy"))
