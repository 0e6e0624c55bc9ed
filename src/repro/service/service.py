"""The multi-tenant streaming query service.

:class:`QueryService` turns the batch engine into a long-running process:
operators attach video streams, tenants register standing queries against
them *while they run*, results push incrementally to subscribers the
moment sequences close, and the whole thing snapshots into one migration
bundle a fresh process resumes mid-stream.

The service is a thin asyncio shell over deterministic cores it does not
re-implement:

* per stream, a :class:`repro.core.scheduler.FleetRun` steps the query
  fleet in lockstep over one shared detection cache;
* :class:`repro.service.admission.AdmissionController` enforces
  per-tenant quotas at the registration boundary;
* :class:`repro.service.migration.ServiceState` captures everything.

Everything runs on one event loop thread: :meth:`step` advances one clip
batch synchronously, and :meth:`serve` yields control between batches
(``await asyncio.sleep(0)``), so registration, cancellation and
subscription calls interleave with stream progress without locks — and
results stay bit-identical to the batch :meth:`OnlineEngine.run_queries`
path, which ``tests/service/test_smoke.py`` asserts.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext
from repro.core.scheduler import FleetRun, QuerySpec
from repro.core.query import CompoundQuery, Query
from repro.detectors.zoo import ModelZoo, default_zoo
from repro.errors import ConfigurationError
from repro.service.admission import AdmissionController
from repro.service.migration import ServiceState
from repro.utils.intervals import Interval
from repro.video.stream import ClipStream
from repro.video.synthesis import LabeledVideo
from repro._typing import StateDict

__all__ = ["QueryService", "ResultEvent"]

#: Event kinds pushed to subscribers.
EVENT_SEQUENCE = "sequence"
EVENT_FINAL = "final"


@dataclass(frozen=True)
class ResultEvent:
    """One push to a query's subscribers.

    ``sequence`` events carry one closed result sequence the moment the
    assembler emits it; the single ``final`` event carries the query's
    complete result (cancelled mid-stream or run to the end) and is the
    subscriber's signal to stop reading.
    """

    stream: str
    query: str
    tenant: str
    kind: str
    interval: Interval | None = None
    result: Any = None


@dataclass
class _Stream:
    """One attached video stream, its fleet run and the tenant of every
    query the fleet admitted (live or retired)."""

    video: LabeledVideo
    clips: ClipStream
    fleet: FleetRun
    tenants: dict[str, str] = field(default_factory=dict)
    done: bool = False
    results: dict[str, Any] = field(default_factory=dict)


class QueryService:
    """Live query registration, incremental result push, migration.

    Single-threaded by design: every public method mutates state
    synchronously, so calls made between :meth:`step` invocations (the
    awaits of :meth:`serve`) are safe without locks.  ``clip_batch``
    bounds how many clips each stream advances per step — the latency
    ceiling between a registration call and the new query observing the
    stream.
    """

    def __init__(
        self,
        zoo: ModelZoo | None = None,
        config: OnlineConfig | None = None,
        *,
        admission: AdmissionController | None = None,
        clip_batch: int = 8,
    ) -> None:
        if clip_batch < 1:
            raise ConfigurationError(
                f"clip_batch must be >= 1; got {clip_batch}"
            )
        self._zoo = zoo if zoo is not None else default_zoo()
        self._config = config or OnlineConfig()
        self._clip_batch = clip_batch
        self.admission = admission or AdmissionController()
        self._streams: dict[str, _Stream] = {}
        self._subscribers: dict[
            tuple[str, str], list[asyncio.Queue[ResultEvent]]
        ] = {}
        # Fresh (detector, recognizer) units already charged to admission
        # per live query, so each step only meters the delta.  Both maps
        # hold live queries only: a query's final event drops its entries.
        self._charged: dict[tuple[str, str], tuple[int, int]] = {}

    # -- streams -----------------------------------------------------------------

    def add_stream(
        self, name: str, video: LabeledVideo, *, start_clip: int = 0
    ) -> None:
        """Attach one video stream under ``name`` (no queries yet)."""
        if name in self._streams:
            raise ConfigurationError(f"stream {name!r} already attached")
        self._streams[name] = _Stream(
            video=video,
            clips=ClipStream(video.meta, start_clip=start_clip),
            fleet=FleetRun(
                self._zoo, video, self._config, start_clip=start_clip
            ),
        )

    def streams(self) -> tuple[str, ...]:
        return tuple(self._streams)

    def position(self, stream: str) -> int:
        """Clip id the stream's next step will process."""
        return self._stream(stream).fleet.position

    def done(self, stream: str) -> bool:
        """True once the stream has ended and its queries completed."""
        return self._stream(stream).done

    def live(self, stream: str) -> tuple[str, ...]:
        """Names of the stream's currently-running queries."""
        return self._stream(stream).fleet.live

    def fleets(self) -> dict[str, FleetRun]:
        """Live fleet runs by stream name (migration capture reads this)."""
        return {
            name: stream.fleet
            for name, stream in self._streams.items()
            if not stream.done
        }

    def _stream(self, name: str) -> _Stream:
        try:
            return self._streams[name]
        except KeyError:
            raise ConfigurationError(
                f"no stream {name!r}; have {sorted(self._streams)}"
            ) from None

    def tenant(self, stream: str, name: str) -> str:
        """The tenant that registered query ``name`` on ``stream``."""
        try:
            return self._stream(stream).tenants[name]
        except KeyError:
            raise ConfigurationError(
                f"no query {name!r} registered on stream {stream!r}"
            ) from None

    # -- registration ------------------------------------------------------------

    def register(
        self,
        stream: str,
        query: Query | CompoundQuery | QuerySpec,
        *,
        tenant: str = "default",
        algorithm: str = "svaqd",
    ) -> str:
        """Admit one standing query on ``stream``; returns its name.

        Runs the full admission pipeline: duplicate check against every
        name the stream's fleet ever admitted, per-tenant quota check
        (raises :class:`~repro.errors.AdmissionError` over quota — the
        fleet is untouched), session construction at the stream's current
        position.  The new query starts observing
        at the next clip the stream serves.
        """
        state = self._stream(stream)
        if state.done:
            raise ConfigurationError(
                f"stream {stream!r} has ended; cannot register"
            )
        if isinstance(query, QuerySpec):
            spec = query
        elif isinstance(query, (Query, CompoundQuery)):
            spec = QuerySpec(
                state.fleet.next_auto_name(), query, algorithm=algorithm
            )
        else:
            raise ConfigurationError(
                f"expected Query, CompoundQuery or QuerySpec; got {query!r}"
            )
        # Surface duplicates before spending a quota slot.
        if spec.name in state.fleet.names():
            status = "live" if spec.name in state.fleet.live else "retired"
            raise ConfigurationError(
                f"duplicate query name {spec.name!r} on stream {stream!r} "
                f"(already {status})"
            )
        self.admission.admit(tenant, spec.name)
        try:
            name = state.fleet.register(
                spec, on_sequence=self._emitter(stream, spec.name, tenant)
            )
        except Exception:
            self.admission.release(tenant)
            raise
        state.tenants[name] = tenant
        self._charged[(stream, name)] = (0, 0)
        return name

    def _emitter(self, stream: str, name: str, tenant: str) -> Any:
        """A per-query emit callback pushing sequence events."""

        def emit(interval: Interval) -> None:
            self._push(
                ResultEvent(
                    stream=stream,
                    query=name,
                    tenant=tenant,
                    kind=EVENT_SEQUENCE,
                    interval=interval,
                )
            )

        return emit

    # -- results -----------------------------------------------------------------

    def subscribe(self, stream: str, name: str) -> "asyncio.Queue[ResultEvent]":
        """An unbounded queue receiving the query's future result events.

        Sequences already emitted before subscribing are not replayed —
        subscribers get the live feed; the ``final`` event's ``result``
        always carries the complete run, so late subscribers still see
        everything once.
        """
        self.tenant(stream, name)  # raises on unknown query
        queue: asyncio.Queue[ResultEvent] = asyncio.Queue()
        self._subscribers.setdefault((stream, name), []).append(queue)
        return queue

    def _push(self, event: ResultEvent) -> None:
        key = (event.stream, event.query)
        for queue in self._subscribers.get(key, []):
            queue.put_nowait(event)
        if event.kind == EVENT_FINAL:  # retired: nothing more to push or meter
            self._subscribers.pop(key, None)
            self._charged.pop(key, None)

    def result(self, stream: str, name: str) -> Any:
        """A finished query's result (completed or cancelled)."""
        state = self._stream(stream)
        try:
            return state.results[name]
        except KeyError:
            raise ConfigurationError(
                f"query {name!r} on stream {stream!r} has no result yet"
            ) from None

    # -- cancellation ------------------------------------------------------------

    def cancel(self, stream: str, name: str) -> Any:
        """Retire one live query; returns (and pushes) its result so far."""
        state = self._stream(stream)
        tenant = self.tenant(stream, name)
        self._charge_deltas(stream)  # settle the units before retiring
        result = state.fleet.cancel(name)
        state.results[name] = result
        self.admission.release(tenant)
        self._push(
            ResultEvent(
                stream=stream,
                query=name,
                tenant=tenant,
                kind=EVENT_FINAL,
                result=result,
            )
        )
        return result

    # -- stepping ----------------------------------------------------------------

    def step(self, stream: str) -> int:
        """Advance one stream by up to ``clip_batch`` clips; returns how
        many were processed (0 = the stream is done)."""
        state = self._stream(stream)
        if state.done:
            return 0
        batch = state.clips.take(self._clip_batch)
        if batch:
            state.fleet.advance(batch)
            self._charge_deltas(stream)
        if state.clips.end():
            self._finish_stream(stream)
        return len(batch)

    def _finish_stream(self, stream: str) -> None:
        state = self._stream(stream)
        live = state.fleet.live
        run = state.fleet.finish()
        state.done = True
        for name in live:
            state.results[name] = run.results[name]
            self.admission.release(state.tenants[name])
            self._push(
                ResultEvent(
                    stream=stream,
                    query=name,
                    tenant=state.tenants[name],
                    kind=EVENT_FINAL,
                    result=run.results[name],
                )
            )

    def _charge_deltas(self, stream: str) -> None:
        """Meter each live query's *new* fresh model units onto its
        tenant's admission units, read off its counters and its feed's
        charge ledger (:meth:`StreamSession.fresh_evaluations`): metering
        folds no session."""
        state = self._stream(stream)
        fleet = state.fleet
        for name in fleet.live:
            fresh = fleet.session(name).fresh_evaluations()
            already = self._charged.get((stream, name), (0, 0))
            if fresh != already:
                self.admission.charge(
                    state.tenants[name],
                    detector_units=fresh[0] - already[0],
                    recognizer_units=fresh[1] - already[1],
                )
                self._charged[(stream, name)] = fresh

    async def serve(self) -> None:
        """Drive every stream to completion, yielding between batches.

        Registration / cancellation / subscription calls made from other
        tasks on the same loop interleave between clip batches.  Returns
        when every attached stream has ended.
        """
        while any(not s.done for s in self._streams.values()):
            for name in list(self._streams):
                if not self._streams[name].done:
                    self.step(name)
                    await asyncio.sleep(0)

    # -- health ------------------------------------------------------------------

    def health(self) -> StateDict:
        """Liveness + accounting snapshot (the metrics endpoint).

        Per stream: cursor position, done flag and each live query's full
        :class:`~repro.core.context.ExecutionStats` payload (the same
        shape ``repro query --stats-json`` prints).  ``totals`` merges
        every query ever run — the retry/degraded/cache-hit counters the
        fault-tolerance layer maintains — and ``admission`` reports each
        tenant's live queries and units against its quota.
        """
        totals = ExecutionContext()
        streams: StateDict = {}
        for name, state in self._streams.items():
            queries: StateDict = {}
            for qname in state.fleet.live:
                snap = state.fleet.context(qname).snapshot()
                payload = snap.as_dict()
                # Probe-based firing-rate estimates (None = unprobed — a
                # strict-JSON-safe null, never NaN).
                payload["selectivity"] = (
                    state.fleet.session(qname).selectivity_estimates()
                )
                queries[qname] = payload
            for qname in state.fleet.names():
                totals.merge(state.fleet.context(qname))
            streams[name] = {
                "position": state.fleet.position,
                "done": state.done,
                "live": list(state.fleet.live),
                "queries": queries,
                # The stream's rate-sharing topology (groups, members);
                # None when sharing is off.
                "rate_sharing": state.fleet.rate_book_stats(),
            }
        return {
            "streams": streams,
            "totals": totals.snapshot().as_dict(),
            "admission": self.admission.usage(),
        }

    # -- migration ---------------------------------------------------------------

    def snapshot(self) -> ServiceState:
        """Capture the whole service into one migration bundle.

        Every live session is frozen (``SNAPSHOTTED``) afterwards — this
        process stops being the stream's owner; resume the bundle in a
        fresh :meth:`resume` service.
        """
        return ServiceState.snapshot(self)

    @classmethod
    def resume(
        cls,
        bundle: ServiceState | StateDict,
        videos: Mapping[str, LabeledVideo],
        zoo: ModelZoo | None = None,
        config: OnlineConfig | None = None,
        *,
        admission: AdmissionController | None = None,
        clip_batch: int = 8,
    ) -> "QueryService":
        """A fresh service continuing a captured one mid-stream.

        Deterministic components are rebuilt by the caller, exactly as
        for :meth:`StreamSession.load_state_dict`: pass the same zoo
        line-up, config and per-tenant quota table the captured service
        ran with, plus the video behind every bundled stream.  Live
        sessions resume their quota state, open runs and cache charge
        bookkeeping; subscribers re-subscribe (push queues are transient
        process-local wiring).  Each tenant holds a slot per live query
        it owns, whatever its cap now is.
        """
        if isinstance(bundle, ServiceState):
            state = bundle
        else:
            state = ServiceState.from_dict(bundle)
        service = cls(
            zoo, config, admission=admission, clip_batch=clip_batch
        )
        live: list[str] = []
        for stream_name, fleet_state in state.streams.items():
            try:
                video = videos[stream_name]
            except KeyError:
                raise ConfigurationError(
                    f"bundle holds stream {stream_name!r} but no video "
                    f"was supplied for it"
                ) from None
            fleet = FleetRun(service._zoo, video, service._config)
            fleet.load_state_dict(fleet_state)
            tenants = state.tenants.get(stream_name, {})
            if set(tenants) != set(fleet.names()):
                raise ConfigurationError(
                    f"service bundle.tenants.{stream_name} names "
                    f"{sorted(tenants)}; its fleet admitted {sorted(fleet.names())}"
                )
            service._streams[stream_name] = _Stream(
                video=video,
                clips=ClipStream(video.meta, start_clip=fleet.position),
                fleet=fleet,
                tenants=dict(tenants),
            )
            for qname in fleet.live:
                live.append(tenants[qname])
                fleet.session(qname).set_emit_callback(
                    service._emitter(stream_name, qname, tenants[qname])
                )
                service._charged[(stream_name, qname)] = (
                    fleet.session(qname).fresh_evaluations()
                )
        service.admission.load_state_dict(state.admission, live)
        return service
