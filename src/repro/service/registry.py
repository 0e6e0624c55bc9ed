"""Query registry — the service's book of record for standing queries.

The scheduler layer (:class:`repro.core.scheduler.FleetRun`) knows which
sessions are live on *one* stream; the service needs the cross-stream,
cross-tenant view: who owns each query, which stream it watches, and what
became of it.  :class:`QueryRegistry` keeps one
:class:`RegisteredQuery` row per ``(stream, name)`` ever admitted —
including cancelled and completed ones, so names stay unambiguous for the
lifetime of the service and a health endpoint can report history, not just
the live set.

The registry checkpoints (it is part of the migration bundle): rows reduce
to their spec payloads via :func:`repro.core.scheduler.spec_to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.core.scheduler import QuerySpec, SpecState, spec_from_dict, spec_state
from repro.errors import ConfigurationError
from repro.utils.validation import read_record, write_record
from repro._typing import StateDict

__all__ = ["QueryRegistry", "RegisteredQuery"]

#: Lifecycle of a registry row.  ``LIVE`` rows have a running session;
#: ``CANCELLED`` were retired mid-stream by the owner; ``COMPLETED``
#: ran to the end of their stream.
QUERY_LIVE = "live"
QUERY_CANCELLED = "cancelled"
QUERY_COMPLETED = "completed"


@dataclass(frozen=True)
class RegisteredQuery:
    """One standing query as the service sees it."""

    stream: str
    name: str
    tenant: str
    spec: QuerySpec
    status: str = QUERY_LIVE

    def with_status(self, status: str) -> "RegisteredQuery":
        if status not in (QUERY_LIVE, QUERY_CANCELLED, QUERY_COMPLETED):
            raise ConfigurationError(f"unknown query status {status!r}")
        return RegisteredQuery(
            self.stream, self.name, self.tenant, self.spec, status
        )


class QueryRegistry:
    """All queries the service ever admitted, keyed by ``(stream, name)``."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], RegisteredQuery] = {}

    def add(self, entry: RegisteredQuery) -> None:
        """Record a newly-admitted query.

        A name already used on the same stream — live *or* historical —
        raises, mirroring :meth:`FleetRun.register`: results and
        subscriptions stay unambiguous across the service's lifetime.
        """
        key = (entry.stream, entry.name)
        if key in self._entries:
            prior = self._entries[key]
            raise ConfigurationError(
                f"duplicate query name {entry.name!r} on stream "
                f"{entry.stream!r} (already {prior.status})"
            )
        self._entries[key] = entry

    def get(self, stream: str, name: str) -> RegisteredQuery:
        try:
            return self._entries[(stream, name)]
        except KeyError:
            raise ConfigurationError(
                f"no query {name!r} registered on stream {stream!r}"
            ) from None

    def mark(self, stream: str, name: str, status: str) -> RegisteredQuery:
        """Transition a row's status; returns the updated row."""
        entry = self.get(stream, name).with_status(status)
        self._entries[(stream, name)] = entry
        return entry

    def live(self, stream: str | None = None) -> tuple[RegisteredQuery, ...]:
        """Live rows, optionally restricted to one stream."""
        return tuple(
            entry
            for entry in self._entries.values()
            if entry.status == QUERY_LIVE
            and (stream is None or entry.stream == stream)
        )

    def entries(self) -> tuple[RegisteredQuery, ...]:
        """Every row ever admitted, in admission order."""
        return tuple(self._entries.values())

    def state_dict(self) -> StateDict:
        """JSON-serialisable registry contents (part of migration
        bundles — history included, so a migrated service keeps refusing
        retired names)."""
        return write_record(RegistryState([
            RegistryRow(e.stream, e.name, e.tenant, e.status, spec_state(e.spec))  # type: ignore[arg-type]
            for e in self._entries.values()
        ]))

    def load_state_dict(self, state: StateDict) -> None:
        """Restore from :meth:`state_dict` output (replaces contents)."""
        self._entries = {}
        for row in read_record(RegistryState, state, "query registry").entries:
            entry = RegisteredQuery(
                row.stream, row.name, row.tenant, spec_from_dict(row.spec), row.status
            )
            self._entries[(entry.stream, entry.name)] = entry


@dataclass(frozen=True)
class RegistryRow:
    stream: str
    name: str
    tenant: str
    status: Literal["live", "cancelled", "completed"]
    spec: SpecState


@dataclass(frozen=True)
class RegistryState:
    """:meth:`QueryRegistry.state_dict`."""

    entries: list[RegistryRow]
