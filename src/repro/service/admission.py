"""Per-tenant admission control for the streaming query service.

A shared service cannot let one tenant's query fleet starve every other
tenant of model capacity.  Per tenant, :class:`AdmissionController` counts
live queries and the fresh model units they charged per model family;
:meth:`AdmissionController.admit` compares those counts with the
operator's :class:`TenantQuota` table and rejects over-quota registrations
with :class:`~repro.errors.AdmissionError` *before* a session is built —
running queries are never affected by a rejection.

Unit charging is post-hoc: after every step the service reads each
query's fresh evaluations per model off the stream's charge ledger (the
query's counters plus the rows its feed booked it since it last folded,
:meth:`~repro.core.session.StreamSession.fresh_evaluations`) and feeds
the deltas to :meth:`AdmissionController.charge`.  A tenant that crosses
its budget keeps its running queries (the work is already paid for) but
is refused *new* registrations until the operator raises the budget.

Only the units checkpoint with the rest of the service: the live counts
are the bundled fleets' live queries, and the limits are the quota table
the operator passes again, so a migrated service keeps counting from
where it was under whatever limits it is given.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from repro.errors import AdmissionError
from repro.utils.validation import Count, read_record, write_record
from repro._typing import StateDict

__all__ = ["AdmissionController", "TenantQuota"]


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


@dataclass(frozen=True)
class TenantUnits:
    """Fresh model units one tenant's queries charged, per model family."""

    detector: Count
    recognizer: Count


class AdmissionController:
    """Quota enforcement at the registration boundary.

    Tenants materialise on first :meth:`admit`.  The limits are read at
    every admit from the quota table — the ``overrides`` mapping pins
    per-tenant quotas, everyone else gets ``default``.
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
        self._live: Counter[str] = Counter()
        self._units: dict[str, Counter[str]] = {}

    def _tenant(self, tenant: str) -> Counter[str]:
        """The tenant's units per model family, materialised on contact."""
        return self._units.setdefault(tenant, Counter())

    def quota_for(self, tenant: str) -> TenantQuota:
        return self._overrides.get(tenant, self._default)

    def units_used(self, tenant: str) -> int:
        """Fresh model units the tenant's queries have charged so far."""
        return sum(self._tenant(tenant).values())

    def admit(self, tenant: str, name: str) -> None:
        """Claim one concurrent-query slot for ``tenant`` or raise.

        Checks the live count against the cap and the units against the
        budget; on success the slot is held (return it via :meth:`release`
        when the query ends).  The raised :class:`AdmissionError` names the
        tenant and the limit hit, so clients can distinguish "wait for a
        slot" from "budget exhausted".
        """
        self._tenant(tenant)
        quota = self.quota_for(tenant)
        if self._live[tenant] >= quota.max_concurrent:
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
        self._live[tenant] += 1

    def release(self, tenant: str) -> None:
        """Return a slot (its query was cancelled or completed)."""
        self._live[tenant] -= 1

    def charge(
        self, tenant: str, *, detector_units: int = 0, recognizer_units: int = 0
    ) -> None:
        """Meter fresh model units onto the tenant's usage."""
        units = self._tenant(tenant)
        units["detector"] += detector_units
        units["recognizer"] += recognizer_units

    def usage(self) -> StateDict:
        """Per-tenant admission picture for the health endpoint (an
        unmetered tenant's ``unit_budget`` reads -1)."""
        report: StateDict = {}
        for tenant in sorted(self._units):
            quota = self.quota_for(tenant)
            budget = quota.model_unit_budget
            report[tenant] = {
                "live_queries": self._live[tenant],
                "max_concurrent": quota.max_concurrent,
                "units_used": self.units_used(tenant),
                "unit_budget": -1 if budget is None else budget,
            }
        return report

    def state_dict(self) -> StateDict:
        """JSON-serialisable admission state: each tenant's units."""
        return write_record(AdmissionState(
            {t: TenantUnits(u["detector"], u["recognizer"]) for t, u in self._units.items()}
        ))

    def load_state_dict(self, state: StateDict, live: Iterable[str] = ()) -> None:
        """Restore from :meth:`state_dict` output (replaces contents);
        ``live`` names the tenant of every query still running."""
        record = read_record(AdmissionState, state, "admission state")
        self._units = {tenant: Counter(asdict(units)) for tenant, units in record.units.items()}
        self._live = Counter(live)
        for tenant in self._live:
            self._tenant(tenant)


@dataclass(frozen=True)
class AdmissionState:
    """:meth:`AdmissionController.state_dict`."""

    units: dict[str, TenantUnits]
