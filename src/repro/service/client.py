"""In-process client for :class:`repro.service.service.QueryService`.

The service API is deliberately transport-free — everything is plain
method calls on one event loop.  :class:`ServiceClient` packages the
calling conventions a tenant actually uses (register against a stream,
drain a subscription until the final result, read health) so examples,
tests and the ``repro serve`` demo do not each re-implement them.  A
network transport would wrap the same surface.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.core.query import CompoundQuery, Query
from repro.core.scheduler import QuerySpec
from repro.errors import ConfigurationError
from repro.service.service import (
    EVENT_FINAL,
    QueryService,
    ResultEvent,
)
from repro.utils.intervals import Interval

__all__ = ["ServiceClient"]


class ServiceClient:
    """One tenant's handle on a running service."""

    def __init__(self, service: QueryService, tenant: str = "default") -> None:
        self._service = service
        self._tenant = tenant

    def rebind(self, service: QueryService) -> None:
        """Point this client at a migrated service instance.

        Subscriptions do not carry over (push queues are process-local
        wiring) — re-subscribe after rebinding."""
        self._service = service

    def register(
        self,
        stream: str,
        query: Query | CompoundQuery | QuerySpec,
        *,
        algorithm: str = "svaqd",
    ) -> str:
        """Register a standing query as this tenant; returns its name."""
        return self._service.register(
            stream, query, tenant=self._tenant, algorithm=algorithm
        )

    def cancel(self, stream: str, name: str) -> Any:
        """Cancel one of this tenant's queries; returns its result."""
        owner = self._service.tenant(stream, name)
        if owner != self._tenant:
            raise ConfigurationError(
                f"query {name!r} on stream {stream!r} belongs to tenant "
                f"{owner!r}, not {self._tenant!r}"
            )
        return self._service.cancel(stream, name)

    def subscribe(
        self, stream: str, name: str
    ) -> "asyncio.Queue[ResultEvent]":
        """Live push feed of the query's result events."""
        return self._service.subscribe(stream, name)

    async def collect(
        self, stream: str, name: str
    ) -> tuple[list[Interval], Any]:
        """Drain a query's feed until its final event.

        Returns ``(pushed_sequences, final_result)`` — the incremental
        intervals in emission order plus the complete result object.
        Subscribe-then-collect from a task running alongside
        :meth:`QueryService.serve`.
        """
        queue = self.subscribe(stream, name)
        pushed: list[Interval] = []
        while True:
            event = await queue.get()
            if event.kind == EVENT_FINAL:
                return pushed, event.result
            if event.interval is not None:
                pushed.append(event.interval)
