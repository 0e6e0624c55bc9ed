"""Session migration — one bundle that moves a live service between
processes.

The v7 session checkpoints (:meth:`StreamSession.state_dict`) capture one
query; migrating a *service* means capturing every live session on every
stream, the scheduler state around them (stream cursors, fleet
membership, the shared caches' charge bookkeeping — which rides inside
each session checkpoint), the tenant of every query each fleet admitted
and each tenant's model units, all in one versioned, JSON-serialisable
bundle.

The contract matches the session-level one: deterministic components
(model zoos, videos, configs, quota tables) are *not* serialised — the
operator rebuilds the new service exactly as the old one was built, then
loads the bundle.  Output after a migration is result-identical to the
uninterrupted run: sessions resume their quota state and open runs, the
caches keep metering already-charged clips as hits, and the tenants' units
keep counting from where they were.  Live slots are not carried: they are
the bundled fleets' live queries.

Capturing a snapshot freezes the source: every captured session is marked
``SNAPSHOTTED`` (:meth:`StreamSession.mark_snapshotted`), so the old
process cannot keep emitting results the new one will emit again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Final, Literal

from repro.core.scheduler import FleetCheckpoint
from repro.service.admission import AdmissionState
from repro.utils.validation import Nested, read_record, write_record
from repro._typing import StateDict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.service import QueryService

__all__ = ["ServiceState", "SERVICE_BUNDLE_VERSION"]

#: Format tag of service migration bundles.  Bump on layout changes; old
#: bundles are refused loudly rather than misread.
SERVICE_BUNDLE_VERSION: Final = 2


@dataclass(frozen=True)
class ServiceState:
    """A captured service, ready to serialise or resume.

    ``streams`` maps stream name → that stream's fleet checkpoint
    (:meth:`repro.core.scheduler.FleetRun.state_dict`, which bundles each
    live session, its execution counters and the shared cache's charge
    state).  ``tenants`` maps stream name → query name → tenant for every
    query those fleets admitted, live or retired; ``admission`` is each
    tenant's model units.  The fields declare the bundle; the fleets and
    the units stay JSON objects their own doors read, so they write back
    as they came.
    """

    version: Literal[2]
    streams: dict[str, Nested[FleetCheckpoint]]
    tenants: dict[str, dict[str, str]]
    admission: Nested[AdmissionState]

    @classmethod
    def snapshot(cls, service: "QueryService") -> "ServiceState":
        """Capture a live service and freeze its sessions.

        Sessions are marked ``SNAPSHOTTED`` *after* the full bundle is
        assembled, so a mid-capture failure leaves the service running.
        """
        fleets = service.fleets()
        state = cls(
            version=SERVICE_BUNDLE_VERSION,
            streams={name: fleet.state_dict() for name, fleet in fleets.items()},
            tenants={
                stream: {name: service.tenant(stream, name) for name in fleet.names()}
                for stream, fleet in fleets.items()
            },
            admission=service.admission.state_dict(),
        )
        for fleet in fleets.values():
            for name in fleet.live:
                fleet.session(name).mark_snapshotted()
        return state

    def to_dict(self) -> StateDict:
        """The bundle as one JSON-serialisable dict."""
        return write_record(self)

    @classmethod
    def from_dict(cls, payload: StateDict) -> "ServiceState":
        """Parse a bundle as this class declares it (its version first)."""
        return read_record(cls, payload, "service bundle")
