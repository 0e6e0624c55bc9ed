"""Multi-query stream scheduling — N online queries over one video stream.

A monitoring deployment rarely watches a camera with a single query;
operators register many standing queries against the same feed.  Run
serially, each query's session re-invokes the detector and recognizer on
every clip, so model cost scales with the number of queries even though
the *stream* is shared.

The stepping core is :class:`FleetRun`: one fleet of
:class:`~repro.core.session.StreamSession` objects advancing clip-by-clip
in lockstep over one video, all attached to one shared
:class:`~repro.detectors.cache.DetectionScoreCache` — each frame/shot is
scored at most once per video regardless of how many queries ask about it.
Fleet membership is **dynamic**: :meth:`FleetRun.register` admits a new
standing query between steps (it starts observing at the current stream
position) and :meth:`FleetRun.cancel` retires one mid-stream, returning
its result over the clips it saw.  The first session to evaluate a
``(kind, label, clip)`` is charged fresh model units exactly as the serial
path would be; every other session's evaluation meters the same units as
cache hits.  Results are bit-identical to running each session alone
(sessions never observe each other — only the cache is shared, and counts
are deterministic).

:meth:`repro.core.engine.OnlineEngine.run_queries` is the batch loop over
that core (start, one :meth:`FleetRun.advance` over the whole stream,
finish).  The streaming query service (:mod:`repro.service`) drives
:class:`FleetRun` step by step, including its fleet-level checkpoint
(:meth:`FleetRun.state_dict` / :meth:`FleetRun.load_state_dict`) which
bundles every live session, its execution counters and the shared cache's
charge state for mid-stream migration.

Each session charges a private :class:`~repro.core.context.ExecutionContext`
so its result carries exact per-query stats; the privates are merged into
the caller's context afterwards, mirroring the thread-executor accounting
of :meth:`repro.core.engine.OnlineEngine.run_many`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Final, Iterable, Literal, Mapping

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext, ExecutionStats, StatsRecord
from repro.core.optimizer import resolved_chunk_clips
from repro.core.query import CompoundQuery, Query
from repro.core.ratebook import RateBookState, SharedRateBook
from repro.core.session import ChunkFeed, SessionCheckpoint, StreamSession, clip_run
from repro.detectors.cache import DetectionScoreCache
from repro.detectors.zoo import ModelZoo
from repro.errors import ConfigurationError
from repro.utils.intervals import Interval
from repro.utils.validation import Count, Nested, Positive, read_record, write_record
from repro.video.model import ClipView
from repro.video.synthesis import LabeledVideo
from repro._typing import StateDict

__all__ = [
    "QuerySpec",
    "MultiQueryRun",
    "MultiQueryScheduler",
    "FleetRun",
    "as_specs",
    "spec_to_dict",
    "spec_from_dict",
]

#: Format tag of :meth:`FleetRun.state_dict` bundles; bump on every change
#: of shape.  :meth:`FleetRun.load_state_dict` reads this version and no
#: other (the session checkpoints inside carry their own).
FLEET_STATE_VERSION: Final = 3


@dataclass(frozen=True)
class QuerySpec:
    """One standing query registered with the scheduler.

    ``algorithm`` selects the quota policy per query — ``"svaq"`` (static
    critical values, optionally pinned via ``k_crit_overrides``) or
    ``"svaqd"`` (dynamic) — so one stream can serve a mixed fleet.
    ``query`` may be a canonical conjunctive :class:`Query` or a CNF
    :class:`CompoundQuery` (footnotes 3–4).
    """

    name: str
    query: Query | CompoundQuery
    algorithm: str = "svaqd"
    k_crit_overrides: Mapping[str, int] | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ("svaq", "svaqd"):
            raise ConfigurationError(
                f"unknown online algorithm {self.algorithm!r} "
                f"for query {self.name!r}"
            )
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"invalid query name {self.name!r}")


def as_specs(
    queries: Iterable[Any], *, algorithm: str = "svaqd"
) -> list[QuerySpec]:
    """Normalise a mixed list of specs/queries to named :class:`QuerySpec`s.

    Bare queries are wrapped with auto-assigned names ``q0, q1, ...`` (by
    input position) and the given default ``algorithm``; existing specs
    pass through untouched.  Duplicate names are rejected.
    """
    specs: list[QuerySpec] = []
    for index, item in enumerate(queries):
        if isinstance(item, QuerySpec):
            specs.append(item)
        elif isinstance(item, (Query, CompoundQuery)):
            specs.append(QuerySpec(f"q{index}", item, algorithm=algorithm))
        else:
            raise ConfigurationError(
                f"expected Query, CompoundQuery or QuerySpec; got {item!r}"
            )
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigurationError(f"duplicate query names: {dupes}")
    if not specs:
        raise ConfigurationError("at least one query is required")
    return specs


# -- spec serialisation ------------------------------------------------------------
#
# Migration bundles carry the fleet's specs so a fresh process can rebuild
# every session before loading its state; queries reduce to their label
# tuples (the models/video are reconstructed by the caller, per the
# checkpoint contract).

_LABEL_GROUPS = ("objects", "actions", "relationships")


@dataclass(frozen=True)
class PlainQueryState:
    type: Literal["query"]
    objects: list[str]
    actions: list[str]
    relationships: list[str]


@dataclass(frozen=True)
class CompoundQueryState:
    type: Literal["compound"]
    clauses: list[list[PlainQueryState]]


def _plain_state(query: Query) -> PlainQueryState:
    return PlainQueryState("query", list(query.objects), list(query.actions), list(query.relationships))


def _plain(record: PlainQueryState) -> Query:
    return Query(**{g: getattr(record, g) for g in _LABEL_GROUPS})


def _query_from_dict(payload: Nested[Any]) -> Query | CompoundQuery:
    """The query of a spec: the payload's ``type`` picks the record."""
    if payload.get("type") == "compound":
        record = read_record(CompoundQueryState, payload)
        return CompoundQuery(
            tuple(tuple(map(_plain, clause)) for clause in record.clauses)
        )
    return _plain(read_record(PlainQueryState, payload))


@dataclass(frozen=True)
class SpecState:
    """What :func:`spec_to_dict` writes."""

    name: str
    algorithm: Literal["svaq", "svaqd"]
    k_crit_overrides: dict[str, int] | None
    query: Nested[PlainQueryState | CompoundQueryState]


def spec_state(spec: QuerySpec) -> SpecState:
    """A :class:`QuerySpec` as its record: queries reduce to label lists."""
    query = spec.query
    written = _plain_state(query) if isinstance(query, Query) else CompoundQueryState(
        "compound", [[_plain_state(literal) for literal in clause] for clause in query.clauses]
    )
    return SpecState(spec.name, spec.algorithm, spec.k_crit_overrides, written)  # type: ignore[arg-type]


def spec_to_dict(spec: QuerySpec) -> StateDict:
    """JSON-serialisable rendering of a :class:`QuerySpec`."""
    return write_record(spec_state(spec))


def spec_from_dict(payload: Any) -> QuerySpec:
    """Rebuild a :class:`QuerySpec` from :func:`spec_to_dict` output."""
    record = read_record(SpecState, payload, "query spec")
    return QuerySpec(
        name=record.name,
        query=_query_from_dict(record.query),
        algorithm=record.algorithm,
        k_crit_overrides=record.k_crit_overrides,
    )


@dataclass(frozen=True)
class FleetCheckpoint:
    """:meth:`FleetRun.state_dict`; each session's door checks its version."""

    version: Literal[3]
    video_id: str
    position: Count
    auto_counter: Count
    chunk_clips: Positive | None
    retired: list[str]
    rate_book: RateBookState | None
    specs: list[SpecState]
    sessions: dict[str, Nested[SessionCheckpoint]]
    contexts: dict[str, StatsRecord]  # type: ignore[valid-type]


@dataclass(frozen=True)
class MultiQueryRun:
    """All registered queries' results over one video stream.

    ``results`` maps each spec's name to its
    :class:`~repro.core.results.OnlineResult`; every result's ``stats``
    is that query's private per-session snapshot, so fresh-vs-cached
    accounting is visible per query.
    """

    video_id: str
    results: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Any:
        return self.results[name]


class FleetRun:
    """Incremental lockstep execution of a dynamic query fleet over one
    video stream.

    One ``FleetRun`` owns the per-video execution state: the live
    sessions, their private contexts, the shared detection cache and the
    stream cursor.  Feed clips through :meth:`advance`; between steps,
    :meth:`register` admits a new standing query (it starts at the current
    position) and :meth:`cancel` retires one, returning its result over
    the clips it observed.  One config and one cache decide the path for
    every session alike: over the shared cache they all (conjunctive and
    CNF queries) share one :class:`~repro.core.session.ChunkFeed`, walked
    by one cursor — a single block-kernel call per cache chunk for all
    the static-quota ones, one row stepper per rate group for the dynamic
    ones; a fault-tolerant or cache-free fleet evaluates clip by clip.
    Charging order (who pays fresh model units, who meters cache hits) is
    deterministic: per clip, sessions in registration order.  A cancelled
    session simply stops charging (later sessions then pay fresh where it
    would have; totals per workload are unchanged).

    Query names are unique for the lifetime of the run, across live *and*
    retired queries, so results and subscriptions are unambiguous.
    """

    #: Not checkpointed (RL002).  The zoo/video/config/cache handles are
    #: reconstructed by the caller exactly as for
    #: :meth:`StreamSession.load_state_dict` (the cache's mutable charge
    #: state rides inside each session's checkpoint).  ``_sessions`` and
    #: ``_contexts`` are rebuilt by re-registering the checkpointed specs.
    #: ``_results`` holds results already *delivered* to the caller
    #: (cancelled queries) — deliberately not migrated: a migration bundle
    #: carries live state, delivered results belong to the client.
    #: ``_finished`` is process-local (a restored fleet is live by
    #: definition).  ``_rate_book`` checkpoints only its grouping table
    #: (under the ``rate_book`` key) — the shared estimator payloads ride
    #: inside each member session's own checkpoint.  ``_fed`` lists
    #: ``_sessions``; ``_feed`` is the open block, folded into the
    #: sessions before any checkpoint.
    _CHECKPOINT_EXCLUDE = frozenset(
        {"_zoo", "_video", "_config", "_cache", "_sessions", "_contexts",
         "_results", "_finished", "_rate_book", "_fed", "_feed"}
    )

    def __init__(
        self,
        zoo: ModelZoo,
        video: LabeledVideo,
        config: OnlineConfig | None = None,
        queries: Iterable[Any] = (),
        *,
        cache: DetectionScoreCache | None = None,
        start_clip: int = 0,
    ) -> None:
        self._zoo = zoo
        self._video = video
        self._config = config or OnlineConfig()
        if cache is None and self._config.cache_detections:
            # Resolve the chunk size here (honouring the
            # ``cache_chunk_clips=0`` plan-from-measured-costs sentinel)
            # so every member session lands on the same chunk grid.
            cache = DetectionScoreCache(
                zoo, video.meta, video.truth,
                chunk_clips=resolved_chunk_clips(
                    self._config, zoo, video.meta.geometry
                ),
            )
        self._cache = cache
        # The estimator-side analogue of the detection cache: SVAQD
        # sessions with identical query shape registered at the same
        # stream position share one rate series and quota refresh.  A
        # group is one stepper on the feed, so sharing follows the feed:
        # a fleet that goes clip by clip (no cache, or fault tolerance,
        # which degrades clips per session) keeps every series private.
        self._rate_book = (
            SharedRateBook()
            if self._config.share_rate_estimates
            and StreamSession._takes_blocks(self._config, cache)
            else None
        )
        self._sessions: dict[str, StreamSession] = {}
        #: The feed's slots: every session, or none in a per-clip fleet.
        self._fed: list[StreamSession] = []
        self._feed: ChunkFeed | None = None
        self._specs: dict[str, QuerySpec] = {}
        self._contexts: dict[str, ExecutionContext] = {}
        self._results: dict[str, Any] = {}
        self._order: list[str] = []
        self._position = start_clip
        self._auto_counter = 0
        self._finished = False
        for item in queries:
            self.register(item)

    # -- introspection -----------------------------------------------------------

    @property
    def video_id(self) -> str:
        return self._video.video_id

    @property
    def position(self) -> int:
        """Clip id the next :meth:`advance` step expects."""
        return self._position

    @property
    def live(self) -> tuple[str, ...]:
        """Names of the currently-registered (non-retired) queries."""
        return tuple(self._sessions)

    def rate_book_stats(self) -> dict[str, float] | None:
        """Sharing counters of the fleet's rate book (``None`` when
        sharing is off — disabled by config or armed fault tolerance)."""
        if self._rate_book is None:
            return None
        return self._rate_book.stats()

    def names(self) -> tuple[str, ...]:
        """Every query this run ever admitted (live and retired)."""
        return tuple(self._contexts)

    def next_auto_name(self) -> str:
        """The name the next bare-query registration would receive."""
        counter = self._auto_counter
        while f"q{counter}" in self._contexts:
            counter += 1
        return f"q{counter}"

    def spec(self, name: str) -> QuerySpec:
        """The spec of one live query."""
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigurationError(
                f"no live query named {name!r}; have {sorted(self._specs)}"
            ) from None

    def session(self, name: str) -> StreamSession:
        try:
            return self._sessions[name]
        except KeyError:
            raise ConfigurationError(
                f"no live query named {name!r}; have {sorted(self._sessions)}"
            ) from None

    def context(self, name: str) -> ExecutionContext:
        """The private execution counters of one (live or retired) query."""
        try:
            context = self._contexts[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown query {name!r}; have {sorted(self._contexts)}"
            ) from None
        if name in self._sessions:
            self._sessions[name].sync()
        return context

    # -- membership --------------------------------------------------------------

    def register(
        self,
        item: Any,
        *,
        on_sequence: Callable[[Interval], None] | None = None,
    ) -> str:
        """Admit one standing query; returns its (unique) name.

        ``item`` is a :class:`QuerySpec`, or a bare :class:`Query` /
        :class:`CompoundQuery` auto-named ``q<n>`` from a monotone
        counter.  The new session starts observing at the current stream
        position — its result covers exactly the clips it saw.  A name
        already used by a live *or* retired query of this run raises
        :class:`~repro.errors.ConfigurationError` naming the duplicate.
        ``on_sequence`` subscribes to the query's result sequences as they
        close (see :meth:`StreamSession.set_emit_callback`).
        """
        if self._finished:
            raise ConfigurationError(
                "cannot register queries on a finished fleet run"
            )
        if isinstance(item, QuerySpec):
            spec = item
        elif isinstance(item, (Query, CompoundQuery)):
            while f"q{self._auto_counter}" in self._contexts:
                self._auto_counter += 1
            spec = QuerySpec(f"q{self._auto_counter}", item)
            self._auto_counter += 1
        else:
            raise ConfigurationError(
                f"expected Query, CompoundQuery or QuerySpec; got {item!r}"
            )
        if spec.name in self._contexts:
            state = "live" if spec.name in self._sessions else "retired"
            raise ConfigurationError(
                f"duplicate query name {spec.name!r} "
                f"(already {state} on this stream)"
            )
        session = self._build_session(spec)
        if on_sequence is not None:
            session.set_emit_callback(on_sequence)
        self._specs[spec.name] = spec
        self._sessions[spec.name] = session
        self._contexts[spec.name] = session.context
        self._order.append(spec.name)
        self._membership_changed()
        return spec.name

    def _build_session(self, spec: QuerySpec) -> StreamSession:
        dynamic = spec.algorithm == "svaqd"
        rate_book = self._rate_book if dynamic else None
        share_key = (
            (spec.name, self._share_group_key(spec))
            if rate_book is not None
            else None
        )
        return StreamSession.for_query(
            self._zoo, spec.query, self._video, self._config,
            dynamic=dynamic,
            k_crit_overrides=spec.k_crit_overrides,
            context=ExecutionContext(),
            cache=self._cache,
            rate_book=rate_book,
            share_key=share_key,
        )

    def _share_group_key(self, spec: QuerySpec) -> str:
        """Rate-sharing equivalence class of one spec.

        The canonical spec payload *minus the name* (identical queries
        share regardless of what they're called), plus the registration
        position: a query admitted mid-stream has a younger estimator
        clock than one admitted at clip 0, so they must not share even
        when their shapes match.
        """
        payload = spec_to_dict(spec)
        del payload["name"]
        return f"{json.dumps(payload, sort_keys=True)}@{self._position}"

    def label_sharing(self) -> dict[str, int]:
        """Cross-query sharing degrees: label -> live queries watching it.

        This is the fleet's planning signal for the adaptive conjunct
        optimizer — a label shared by k queries costs each of them 1/k of
        its fresh inference through the detection cache, so shared labels
        rank cheaper under ``predicate_order="cost"``.
        """
        degrees: dict[str, int] = {}
        for session in self._sessions.values():
            for label in set(session.predicate_labels):
                degrees[label] = degrees.get(label, 0) + 1
        return degrees

    def _membership_changed(self) -> None:
        """A register or a cancel: drop the open feed (its unconsumed rows
        were never charged; the next step evaluates them again for the new
        membership), list the feed's members again and push the new label
        sharing degrees to every live session."""
        self._feed = None
        live = list(self._sessions.values())
        self._fed = live if live and live[0].chunkable else []
        degrees = self.label_sharing()
        for session in live:
            session.set_label_sharing(degrees)

    def cancel(self, name: str) -> Any:
        """Retire one live query and return its result so far.

        The session drains and finishes immediately: an open positive run
        is closed at the last processed clip, the final quota update runs,
        and the result covers exactly the clips the query observed.  The
        name stays reserved for the lifetime of the run.
        """
        session = self.session(name)
        if self._rate_book is not None:
            # Onto a private rate series, so the finish sequence below
            # cannot touch the surviving members.
            self._rate_book.release(name)
        session.drain()
        result = session.finish()
        self._results[name] = result
        del self._sessions[name]
        del self._specs[name]
        self._membership_changed()
        return result

    # -- stepping ----------------------------------------------------------------

    def advance(
        self,
        clips: Iterable[ClipView] | range,
        *,
        short_circuit: bool = True,
    ) -> None:
        """Advance every live session over a batch of in-order clips.

        Per clip, the feed's cursor moves one row for all sessions at once
        (a per-clip fleet evaluates each in turn); a session whose positive
        run the clip closes emits the sequence right then; the rows are
        charged when the meter or a session's charges are next read.  Clips
        or their ids as a range must continue the run's stream position in
        the video (:func:`clip_run`), or nothing is consumed and it raises.
        """
        if self._finished:
            raise ConfigurationError("fleet run already finished")
        for clip_id in clip_run(clips, self._position, self._video.meta):
            if self._fed:
                feed = self._feed = ChunkFeed.step(
                    self._feed, self._cache, self._fed, clip_id, short_circuit, 1
                )
                for slot in feed.closing.get(clip_id, ()):
                    self._fed[slot].emit_closed()
            else:
                clip = ClipView(self._video.meta, clip_id)
                for session in tuple(self._sessions.values()):
                    session.process(clip, short_circuit=short_circuit)
            self._position = clip_id + 1

    def finish(
        self, *, context: ExecutionContext | None = None
    ) -> MultiQueryRun:
        """Close every live session and return all results.

        The returned :class:`MultiQueryRun` covers every query the run
        ever admitted — cancelled ones with their mid-stream results — in
        registration order.  ``context`` receives the merged counters of
        all sessions (cancelled included); per-query stats live on each
        result.
        """
        if not self._finished:
            # A rate group's owner registered first, so it finishes first:
            # its final quota update lands before the other members read
            # their final rates.
            for name in list(self._sessions):
                session = self._sessions.pop(name)
                session.drain()
                self._results[name] = session.finish()
                del self._specs[name]
            self._membership_changed()  # nobody is live: let go of them all
            self._finished = True
        if context is not None:
            for name in self._order:
                context.merge(self._contexts[name])
        return MultiQueryRun(
            video_id=self._video.video_id,
            results={name: self._results[name] for name in self._order},
        )

    # -- checkpointing -----------------------------------------------------------

    def state_dict(self) -> StateDict:
        """Complete live-fleet state, JSON-serialisable.

        Bundles, per live query: its spec, its session checkpoint (which
        carries the shared cache's charge bookkeeping) and its execution
        counters — everything a fresh process needs to resume the fleet
        mid-stream with result- and stats-identical output.  Results
        already delivered through :meth:`cancel` are the caller's and do
        not ride along.
        """
        if self._finished:
            raise ConfigurationError("cannot checkpoint a finished fleet run")
        cache, book = self._cache, self._rate_book
        return write_record(FleetCheckpoint(
            version=FLEET_STATE_VERSION,
            video_id=self._video.video_id,
            position=self._position,
            auto_counter=self._auto_counter,
            chunk_clips=cache.chunk_clips if cache is not None else None,
            retired=sorted(self._results),
            rate_book=book.state() if book is not None else None,
            specs=[spec_state(spec) for spec in self._specs.values()],
            sessions={name: s.state_dict() for name, s in self._sessions.items()},
            contexts={name: self.context(name).snapshot().as_dict() for name in self._sessions},
        ))

    def load_state_dict(self, state: StateDict) -> "FleetRun":
        """Restore a fleet checkpoint into this (freshly-built, empty) run.

        Build the run exactly as the checkpointed one was built — same
        zoo line-up, video, config — with no queries registered, then
        load.  Sessions are re-registered from the bundled specs and each
        one resumes its own state; retired names stay reserved so a
        post-migration registration cannot collide with a delivered
        result.  Returns ``self``.
        """
        if self._sessions or self._results:
            raise ConfigurationError(
                "fleet state must be loaded into a fresh, empty run"
            )
        record = read_record(FleetCheckpoint, state, "fleet checkpoint")
        if record.video_id != self._video.video_id:
            raise ConfigurationError(
                f"fleet checkpoint holds video {record.video_id!r}, "
                f"not {self._video.video_id!r}"
            )
        self._position = record.position
        self._auto_counter = record.auto_counter
        # The bundle pins the shared cache's chunk grid; a run whose config
        # planned a different size (e.g. the meter has observations now
        # that it lacked at first registration) must rebuild on the
        # checkpointed grid before any session attaches, or the restored
        # sessions' epoch cadence would diverge from the source fleet's.
        stored_chunk = record.chunk_clips
        if stored_chunk is not None and self._cache is not None:
            if self._cache.chunk_clips != stored_chunk:
                self._cache = DetectionScoreCache(
                    self._zoo, self._video.meta, self._video.truth,
                    chunk_clips=stored_chunk,
                )
        if record.rate_book is None:
            # The source fleet ran unshared: restore every session on a
            # private rate series.  Perf-only downgrade.
            self._rate_book = None
        elif self._rate_book is not None:
            # Prime the grouping before re-registration so members rejoin
            # their checkpointed groups (live group keys embed the current
            # position, which differs from the original registration one).
            self._rate_book.load_state_dict(record.rate_book, {
                spec.name: (replace(spec, name=""), record.sessions.get(spec.name))
                for spec in record.specs
            })
        self._order = []
        sessions, contexts = record.sessions, record.contexts
        for payload in record.specs:
            spec = spec_from_dict(payload)
            for what, held in (("session", sessions), ("context", contexts)):
                if spec.name not in held:
                    raise ConfigurationError(
                        f"fleet checkpoint holds no {what} for live query {spec.name!r}"
                    )
            name = self.register(spec)
            self._sessions[name].load_state_dict(sessions[name])
            self._contexts[name].load_snapshot(
                ExecutionStats.from_dict(contexts[name])
            )
        # Reserve retired names without their (already-delivered) results.
        for name in record.retired:
            self._contexts.setdefault(name, ExecutionContext())
        return self


class MultiQueryScheduler:
    """A fixed query fleet that :meth:`start` turns into a
    :class:`FleetRun` per video.  Kept for ``benchmarks/svqbench``, which
    calls it; everything else builds the run with
    :meth:`repro.core.engine.OnlineEngine.start_queries`."""

    def __init__(
        self,
        zoo: ModelZoo,
        queries: Iterable[Any],
        config: OnlineConfig | None = None,
    ) -> None:
        self._zoo = zoo
        self._config = config or OnlineConfig()
        self._specs = as_specs(queries)

    def start(
        self,
        video: LabeledVideo,
        *,
        cache: DetectionScoreCache | None = None,
        start_clip: int = 0,
    ) -> FleetRun:
        """An incremental :class:`FleetRun` over this scheduler's fleet."""
        return FleetRun(
            self._zoo, video, self._config, self._specs,
            cache=cache, start_clip=start_clip,
        )
