"""Per-tenant admission control for the streaming query service.

A shared service cannot let one tenant's query fleet starve every other
tenant of model capacity.  Admission control reuses the quota machinery
the online algorithms already have: each tenant gets a
:class:`~repro.core.policies.ConsumableQuotaPolicy` ledger for its
concurrent-query slots and a :class:`~repro.detectors.cost.CostMeter` as
its model-unit usage ledger.  :meth:`AdmissionController.admit` rejects
over-quota registrations with :class:`~repro.errors.AdmissionError`
*before* a session is built — running queries are never affected by a
rejection.

Unit charging is post-hoc: after every step the service reads each
query's fresh evaluations per model off the stream's charge ledger (the
query's counters plus the rows its feed booked it since it last folded,
:meth:`~repro.core.session.StreamSession.fresh_evaluations`) and feeds
the deltas to :meth:`AdmissionController.charge`.  A tenant that crosses
its budget keeps its running queries (the work is already paid for) but
is refused *new* registrations until the operator raises the budget.

Admission state checkpoints with the rest of the service — the
consumable ledgers and cost meters both round-trip through JSON — so a
migrated service keeps enforcing the same budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.policies import UNLIMITED, ConsumableQuotaPolicy, ConsumableQuotas
from repro.detectors.cost import CostMeter, MeterState
from repro.errors import AdmissionError
from repro.utils.validation import read_record, write_record
from repro._typing import StateDict

__all__ = ["AdmissionController", "TenantQuota"]

#: Ledger label for a tenant's concurrent-query slots.
_SLOTS = "concurrent_queries"


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant.

    ``max_concurrent`` caps simultaneously-live queries across all the
    tenant's streams; ``model_unit_budget`` caps cumulative *fresh* model
    units (detector + recognizer invocations) charged by the tenant's
    queries — ``None`` means unmetered.  Cache hits are free: admission
    charges what the models actually ran, matching the paper's cost
    model.
    """

    max_concurrent: int = 4
    model_unit_budget: int | None = None

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise AdmissionError(
                f"max_concurrent must be >= 1; got {self.max_concurrent}"
            )
        if self.model_unit_budget is not None and self.model_unit_budget < 0:
            raise AdmissionError(
                f"model_unit_budget must be >= 0; "
                f"got {self.model_unit_budget}"
            )


class AdmissionController:
    """Quota enforcement at the registration boundary.

    Tenants materialise lazily on first contact: each gets a slots ledger
    (:class:`ConsumableQuotaPolicy`) and a usage meter
    (:class:`CostMeter`) built from its :class:`TenantQuota` — the
    ``overrides`` mapping pins per-tenant quotas, everyone else gets
    ``default``.
    """

    #: Not checkpointed (RL002): ``_default`` and ``_overrides`` are
    #: constructor configuration — the operator passes the same quota
    #: table when rebuilding the service, exactly as sessions' zoos and
    #: configs are rebuilt by the caller on restore.
    _CHECKPOINT_EXCLUDE = frozenset({"_default", "_overrides"})

    def __init__(
        self,
        default: TenantQuota | None = None,
        overrides: Mapping[str, TenantQuota] | None = None,
    ) -> None:
        self._default = default or TenantQuota()
        self._overrides = dict(overrides or {})
        self._slots: dict[str, ConsumableQuotaPolicy] = {}
        self._meters: dict[str, CostMeter] = {}

    def quota_for(self, tenant: str) -> TenantQuota:
        return self._overrides.get(tenant, self._default)

    def _ledger(self, tenant: str) -> ConsumableQuotaPolicy:
        if tenant not in self._slots:
            self._slots[tenant] = ConsumableQuotaPolicy(
                {_SLOTS: self.quota_for(tenant).max_concurrent}
            )
            self._meters[tenant] = CostMeter()
        return self._slots[tenant]

    def units_used(self, tenant: str) -> int:
        """Fresh model units the tenant's queries have charged so far."""
        self._ledger(tenant)
        return self._meters[tenant].units()

    def admit(self, tenant: str, name: str) -> None:
        """Claim one concurrent-query slot for ``tenant`` or raise.

        Checks the slots ledger and the unit budget; on success the slot
        is consumed (release it via :meth:`release` when the query ends).
        The raised :class:`AdmissionError` names the tenant and the limit
        hit, so clients can distinguish "wait for a slot" from "budget
        exhausted".
        """
        ledger = self._ledger(tenant)
        quota = self.quota_for(tenant)
        if ledger.exhausted(_SLOTS):
            raise AdmissionError(
                f"tenant {tenant!r} is at its concurrent-query quota "
                f"({quota.max_concurrent}); cannot register {name!r}"
            )
        budget = quota.model_unit_budget
        if budget is not None and self.units_used(tenant) >= budget:
            raise AdmissionError(
                f"tenant {tenant!r} has exhausted its model-unit budget "
                f"({self.units_used(tenant)}/{budget} units); "
                f"cannot register {name!r}"
            )
        ledger.consume(_SLOTS)

    def release(self, tenant: str) -> None:
        """Return a slot (its query was cancelled or completed)."""
        self._ledger(tenant).release(_SLOTS)

    def charge(
        self, tenant: str, *, detector_units: int = 0, recognizer_units: int = 0
    ) -> None:
        """Meter fresh model units onto the tenant's usage ledger."""
        self._ledger(tenant)
        meter = self._meters[tenant]
        if detector_units:
            meter.record("detector", detector_units, 0.0)
        if recognizer_units:
            meter.record("recognizer", recognizer_units, 0.0)

    def usage(self) -> StateDict:
        """Per-tenant admission picture for the health endpoint."""
        report: StateDict = {}
        for tenant in sorted(self._slots):
            quota = self.quota_for(tenant)
            ledger = self._slots[tenant]
            budget = quota.model_unit_budget
            report[tenant] = {
                "live_queries": ledger.used(_SLOTS),
                "max_concurrent": quota.max_concurrent,
                "units_used": self.units_used(tenant),
                "unit_budget": UNLIMITED if budget is None else budget,
            }
        return report

    def state_dict(self) -> StateDict:
        """JSON-serialisable admission state (slots + usage meters)."""
        return write_record(AdmissionState(
            {tenant: ledger.state() for tenant, ledger in self._slots.items()},
            {tenant: meter.__getstate__() for tenant, meter in self._meters.items()},
        ))

    def load_state_dict(self, state: StateDict) -> None:
        """Restore from :meth:`state_dict` output (replaces contents)."""
        record = read_record(AdmissionState, state, "admission state")
        self._slots = {}
        self._meters = {}
        for tenant, ledger in record.slots.items():
            self._ledger(tenant).load_state_dict(ledger)
        for tenant, tables in record.meters.items():
            self._ledger(tenant)
            self._meters[tenant].__setstate__(vars(tables))


@dataclass(frozen=True)
class AdmissionState:
    """:meth:`AdmissionController.state_dict`."""

    slots: dict[str, ConsumableQuotas]
    meters: dict[str, MeterState]  # type: ignore[valid-type]
