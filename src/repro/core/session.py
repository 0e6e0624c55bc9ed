"""The unified, resumable streaming session.

Every online algorithm in the paper — SVAQ (Alg. 1+2) and SVAQD (Alg. 3),
over a conjunction or a footnote-3/4 CNF — is one conceptual pipeline::

    evaluate clip  →  update quotas  →  assemble sequences

:class:`StreamSession` implements that pipeline once, incrementally,
parameterised along the two axes the algorithms actually differ on:

* a **quota policy** (:mod:`repro.core.policies`) — static critical values
  (SVAQ) or kernel-estimated dynamic ones (SVAQD);
* a **query** — conjunctive or CNF, either way one clause program, run by
  one :class:`~repro.core.indicators.ClipEvaluator`.

:meth:`repro.core.engine.OnlineEngine.run` drives one session over a
stream and :class:`~repro.core.scheduler.FleetRun` many.  Because the
session is the single execution path, the cross-cutting machinery lives
here exactly once: checkpoint/resume
(:meth:`state_dict` / :meth:`load_state_dict`) works for *all* online
algorithms, per-stage accounting flows into one
:class:`~repro.core.context.ExecutionContext`, probe clips keep dynamic
estimators fed, and the selectivity-sorted evaluation order (footnote 5)
is computed in one place.

A surveillance deployment runs for days; the process will restart.  Feed
runs of clips, checkpoint the complete dynamic state to a JSON-serialisable
dict at any clip boundary, and resume later (possibly in a new process)
with bit-identical behaviour — the resumed stream produces exactly the
sequences the uninterrupted run would have::

    session = StreamSession.for_query(zoo, query, video, config)
    session.advance(ClipStream(video.meta, 0, 500))
    save(json.dumps(session.state_dict()))
    session.advance(ClipStream(video.meta, 500))
    result = session.finish()
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Final, Iterable, Literal, Mapping, Sequence

import numpy as np

from repro.core.config import OnlineConfig
from repro.core.context import (
    STAGE_ASSEMBLE,
    STAGE_EVALUATE,
    STAGE_QUOTAS,
    ExecutionContext,
)
from repro.core.indicators import (
    BlockColumns,
    BlockPlan,
    ClipEvaluation,
    ClipEvaluator,
    EvaluationLog,
    RowStepper,
    evaluate_block,
    evaluation_from_dict,
)
from repro.core.optimizer import ConjunctOptimizer, OptimizerState
from repro.core.policies import (
    DynamicQuotaPolicy,
    DynamicQuotas,
    QuotaPolicy,
    StaticQuotaPolicy,
    StaticQuotas,
)
from repro.core.query import CompoundQuery, Query
from repro.core.results import OnlineResult, degraded_sequence_spans
from repro.core.sequences import AssemblerState, SequenceAssembler
from repro.detectors.cache import CacheState, ChargeLedger, DetectionScoreCache
from repro.detectors.zoo import ModelZoo
from repro.errors import ConfigurationError
from repro.utils.intervals import Interval
from repro.utils.validation import Count, Nested, read_record, write_record
from repro.video.model import ClipView, VideoMeta
from repro.video.stream import ClipStream
from repro.video.synthesis import LabeledVideo
from repro._typing import StateDict

if TYPE_CHECKING:
    from repro.core.ratebook import SharedRateBook

#: Format tag written into checkpoints; bump on every change of shape.
#: :meth:`StreamSession.load_state_dict` reads this version and no other
#: (v7: one ``pending`` row shape — every label's outcome, every field).
CHECKPOINT_VERSION: Final = 7


@dataclass(frozen=True)
class SessionCheckpoint:
    """:meth:`StreamSession.state_dict` (the policy: its own kind's record)."""

    version: Literal[7]
    clip_index: Count
    prev_positive: bool
    pending: ClipEvaluation | None
    policy: Nested[StaticQuotas | DynamicQuotas]
    assembler: AssemblerState
    optimizer: OptimizerState
    trace: list[dict[str, int]]
    cache: CacheState | None
    degraded_clips: list[Count]
    held: dict[str, tuple[Count, Count]]

#: Session lifecycle states.  A session is born RUNNING; the service layer
#: marks it DRAINING when no further clips will arrive (cancel requested or
#: stream exhausted, finish pending), SNAPSHOTTED when its state was
#: captured into a migration bundle (the local instance is then frozen —
#: the resumed copy elsewhere is the live one), and CLOSED once
#: :meth:`StreamSession.finish` has built the result.
SESSION_RUNNING = "running"
SESSION_DRAINING = "draining"
SESSION_SNAPSHOTTED = "snapshotted"
SESSION_CLOSED = "closed"


class _FeedReader:
    """A session's place in a :class:`ChunkFeed`: its columns, how many
    of their rows are folded into the session's state (``synced``) and
    fed to its assembler (``assembled`` — ahead of ``synced`` when a fleet
    had a closing run emitted on time), the clips at which the indicator
    flips (``flips[flip_at:]`` are still to come; a dynamic group's list
    grows as its stepper produces rows), its slot in the feed's charge
    ledger and the stepper seconds already booked: one object rather
    than eight session attributes (CPython shares instance-dict keys up
    to 30 per class)."""

    __slots__ = (
        "feed", "block", "slot", "flips", "flip_at", "synced", "assembled",
        "stepped_s",
    )

    def __init__(
        self, feed: "ChunkFeed", slot: int, flips: list[int]
    ) -> None:
        self.feed = feed
        self.block: BlockColumns = feed.blocks[slot]
        self.slot = slot
        self.flips = flips
        self.flip_at = self.synced = self.assembled = 0
        self.stepped_s = 0.0


class ChunkFeed:
    """One cache chunk's rows for a set of sessions, and the cursor they
    share.

    Every chunkable session of a fleet — or one session driven alone —
    reads the rest of a cache chunk as columns; advancing all of them by
    ``n`` clips is one :meth:`step`.  Static-quota members have those
    columns evaluated up front in one
    :func:`~repro.core.indicators.evaluate_block` call and move by the
    cursor alone.  Dynamic members are grouped by the quota manager they
    share (a fleet's rate group, or a session of its own): one
    :class:`~repro.core.indicators.RowStepper` a group produces the rows
    consumed in one loop (an Eq. 6 advance reuses the raw rate its last
    posterior kept), and every member of the group reads that block.
    A step moves the consumed mark of the feed's
    :class:`~repro.detectors.cache.ChargeLedger`, which charges those rows
    when the meter or a session's charges are read (an abandoned tail is
    never charged: nothing to refund); :meth:`StreamSession.sync` folds
    them into each session's state.  Sessions hold the feed; the feed holds
    no session, so a fleet dropped mid-chunk leaves no reference cycle.
    """

    def __init__(
        self,
        cache: DetectionScoreCache,
        sessions: Sequence["StreamSession"],
        clip_id: int,
        short_circuit: bool,
    ) -> None:
        for session in sessions:
            session._check_running()
            session._detach()  # folds what it consumed of its last feed
        chunk = cache.chunk_clips
        hi = min(cache.n_clips, (clip_id // chunk + 1) * chunk)
        plans = [session._block_plan(clip_id) for session in sessions]
        static = []
        groups: dict[int, list[int]] = {}
        for slot, (session, plan) in enumerate(zip(sessions, plans)):
            if not session.policy.dynamic:
                static.append(slot)
                continue
            groups.setdefault(id(session.policy.manager), []).append(slot)
            if session._adaptive and plan.probe_every > 0:
                # A dynamic session refreshes its adaptive order before
                # every clip, and what a probe observes can change it: the
                # block ends after the first probe row, and the next clip
                # starts one planned after the fold.
                hi = min(hi, clip_id + 1 + -plan.probe_offset % plan.probe_every)
        n = hi - clip_id
        start = time.perf_counter()
        blocks, counted, owners = evaluate_block(
            cache, clip_id, hi, [plans[slot] for slot in static],
            short_circuit=short_circuit,
        )
        if groups:  # the kernel numbered its askers by plan, not by slot
            owners = [[static[asker] for asker in column] for column in owners]
        # Per label: ``(kind, label, times, owners)``, the ledger's input.
        charges = [(*charge, column) for charge, column in zip(counted, owners)]
        self.blocks: list[Any] = [None] * len(sessions)
        for slot, block in zip(static, blocks):
            self.blocks[slot] = block
        #: Per dynamic group: its stepper and its members' slots.
        self.steppers: list[tuple[RowStepper, list[int]]] = []
        column = {
            (kind, label): j for j, (kind, label, _, _) in enumerate(charges)
        }
        flips: dict[int, list[int]] = {}
        for slots in groups.values():
            # Members of a group see identical rows: the first stands for all.
            lead = sessions[slots[0]]
            plan = plans[slots[0]]
            pending = lead._pending
            columns = []
            for source in zip(plan.kinds, plan.labels):
                if source not in column:
                    column[source] = len(charges)
                    charges.append((*source, [0] * n, [0] * n))
                columns.append(charges[column[source]][2:])
            stepper = RowStepper(
                cache, clip_id, hi, plan, lead.policy.manager,
                short_circuit=short_circuit,
                carry=None
                if pending is None
                else (pending.by_label(), pending.positive),
                before=lead._prev_positive,
                trace=any(sessions[slot]._record_trace for slot in slots),
                askers=(len(slots), slots[0], columns),
            )
            self.steppers.append((stepper, slots))
            for slot in slots:
                self.blocks[slot] = stepper.columns
                flips[slot] = stepper.flips
        #: Decides who pays for the consumed rows when they are read.
        self.ledger = ChargeLedger(cache, clip_id, n, charges, len(sessions))
        # One call served every member at once; split its wall evenly.
        share = (time.perf_counter() - start) / len(sessions)
        self.lo = clip_id
        self.n = n
        self.short_circuit = short_circuit
        self.members = len(sessions)
        #: Rows consumed so far.
        self.cursor = 0
        #: Seconds the steppers took so far, and how many members share it.
        self.stepped_s = 0.0
        self.stepping = len(sessions) - len(static)
        #: clip id -> slots whose positive run that clip closes, so a
        #: fleet can have them emit the step it arrives: known now for
        #: static members, found as the row is produced for dynamic ones.
        self.closing: dict[int, list[int]] = {}
        for slot, session in enumerate(sessions):
            session._attach(self, slot, share, flips.get(slot))

    @staticmethod
    def step(
        feed: "ChunkFeed | None",
        cache: DetectionScoreCache,
        sessions: Sequence["StreamSession"],
        clip_id: int,
        short_circuit: bool,
        n: int,
    ) -> "ChunkFeed":
        """Consume the rows of up to ``n`` clips from ``clip_id`` on
        ``feed``, the one its caller last got for ``sessions``, up to the
        feed's end; ``clip_id`` continues the feed (:func:`clip_run`
        checked it against the cursor).  When the feed cannot serve it (no
        feed yet, chunk used up or left by a member, ``short_circuit``
        flipped), first start over from ``clip_id`` to the end of the
        cache chunk.  Returns the feed now serving them; its cursor tells
        how far they got."""
        if (
            feed is None
            or feed.cursor == feed.n
            or feed.short_circuit != short_circuit
            or feed.members != len(sessions)
        ):
            feed = ChunkFeed(cache, sessions, clip_id, short_circuit)
        stop = feed.cursor + n
        if stop > feed.n:
            stop = feed.n
        if feed.steppers:
            start = time.perf_counter()
            for stepper, slots in feed.steppers:
                for clip in stepper.run(stop):
                    closing = feed.closing.setdefault(clip, [])
                    closing.extend(slots)
                    closing.sort()  # emission goes in registration order
            feed.stepped_s += time.perf_counter() - start
        if not feed.ledger.standing:  # a lookup or another feed had it stand down
            feed.ledger.stand()
        feed.cursor = feed.ledger.consumed = stop
        return feed


def clip_run(clips: Iterable[ClipView] | range, expected: int | None, video: VideoMeta) -> range:
    """The ids of ``clips`` as a range (a :class:`ClipStream`'s rest or a
    range read as one, no :class:`ClipView` built), or a
    :class:`ConfigurationError` before a row is consumed unless they go one
    by one on from clip ``expected`` (``None``: anywhere) in ``video``."""
    if isinstance(clips, range) and (
        clips.step != 1 or not 0 <= clips.start <= clips.stop <= video.n_clips
    ):
        raise ConfigurationError(f"clips must continue the stream in the video; got {clips!r}")
    run: Iterable[ClipView] | range = clips.rest() if isinstance(clips, ClipStream) else clips
    if isinstance(run, range):
        if not run or expected is None or run.start == expected:
            return run
        want, got = expected, run.start
    else:
        start = want = expected
        for clip in run:
            got = clip.clip_id
            if want is None:
                start = want = got
            elif got != want:
                break
            want += 1
        else:
            return range(0) if start is None or want is None else range(start, want)
    raise ConfigurationError(f"clips must continue the stream: expected clip {want}, got {got}")


class StreamSession:
    """Incremental execution of one online query over one video stream."""

    #: Not checkpointed (RL002).  The deterministic components are
    #: reconstructed by the caller (see :meth:`load_state_dict`): the
    #: video/config/context handles and everything derived from them
    #: (``_labels``/``_n_labels``/``_armed``/``_chunkable``) come from
    #: building the session the same way the checkpointed one was built.
    #: ``_evaluations`` is per-clip trace data, deliberately *not* part of
    #: resumable state — a resumed session records only post-resume
    #: evaluations (contract pinned by ``test_session.py``), while
    #: sequences/stats do round-trip.  ``_record_trace`` is a constructor
    #: flag and ``_final_stats`` only exists after finish (finished
    #: sessions refuse to checkpoint).  ``_lifecycle`` is process-local: a
    #: restored session is by definition RUNNING (DRAINING/SNAPSHOTTED/
    #: CLOSED are terminal states of *this* instance, not of the logical
    #: query), and ``_on_emit`` is transient subscription wiring the
    #: service re-attaches after a resume.
    _CHECKPOINT_EXCLUDE = frozenset(
        {"_video", "_config", "_context", "_labels", "_n_labels", "_armed",
         "_chunkable", "_adaptive", "_epoch_clips", "_evaluations",
         "_record_trace", "_final_stats", "_lifecycle", "_on_emit"}
    )

    def __init__(
        self,
        video: LabeledVideo,
        evaluator: ClipEvaluator,
        policy: QuotaPolicy,
        config: OnlineConfig | None = None,
        *,
        record_trace: bool = False,
        context: ExecutionContext | None = None,
    ) -> None:
        self._video = video
        self._evaluator = evaluator
        self._policy = policy
        self._config = config or OnlineConfig()
        self._context = context if context is not None else ExecutionContext()
        evaluator.context = self._context
        policy.attach_context(self._context)
        # Static quotas never move, so the per-clip dict build is hoisted
        # out of the hot loop (dynamic policies still read per clip).
        self._static_quotas = None if policy.dynamic else policy.quotas()
        plan = evaluator.plan()
        self._labels = plan.labels
        self._n_labels = len(self._labels)
        self._armed = self._config.fault_tolerant
        self._chunkable = self._takes_blocks(self._config, evaluator.cache)
        self._degraded_clips: list[int] = []
        #: This session's place in the feed it reads (block path only).
        self._reader: _FeedReader | None = None
        self._lifecycle = SESSION_RUNNING
        self._on_emit: Callable[[Interval], None] | None = None
        self._assembler = SequenceAssembler()
        #: The per-clip path's rows as built; the block path's columns,
        #: whose rows materialise when read.
        self._evaluations: Any = EvaluationLog() if self._chunkable else []
        self._pending: ClipEvaluation | None = None
        self._prev_positive = False
        self._clip_index = 0
        self._finished = False
        self._record_trace = record_trace
        self._trace: list[dict[str, int]] = []
        self._final_stats = None
        # The conjunct optimizer owns the probe selectivity statistics
        # (footnote 5; probes evaluate every predicate, so the order does
        # not bias them) and, under predicate_order="cost", ranks the
        # conjuncts by expected cost-to-falsify.
        self._adaptive = (
            self._config.predicate_order != "user" and not plan.compound
        )
        self._optimizer = ConjunctOptimizer(
            plan.labels, self._config.predicate_order,
            cost_fn=None if plan.compound else evaluator.unit_cost_ms,
        )
        self._reorders_seen = 0
        # Static adaptive sessions refresh their order on cache-chunk
        # boundaries (the epoch), chunked or not, so the serial reference
        # path stays bit-identical to the chunked fast path.
        self._epoch_clips = evaluator.chunk_clips if self._adaptive else 0

    # -- construction ------------------------------------------------------------

    @classmethod
    def for_query(
        cls,
        zoo: ModelZoo,
        query: Query | CompoundQuery,
        video: LabeledVideo,
        config: OnlineConfig | None = None,
        *,
        dynamic: bool = True,
        k_crit_overrides: Mapping[str, int] | None = None,
        record_trace: bool = False,
        context: ExecutionContext | None = None,
        cache: DetectionScoreCache | None = None,
        rate_book: "SharedRateBook | None" = None,
        share_key: tuple[str, object] | None = None,
    ) -> "StreamSession":
        """A session over a canonical conjunctive query, or a CNF compound
        one (footnotes 3–4).

        ``dynamic=True`` is SVAQD (Algorithm 3); ``dynamic=False`` is SVAQ
        (Algorithm 1) with critical values fixed from the configured ``p₀``
        or pinned per label via ``k_crit_overrides``.  ``cache`` attaches a
        shared :class:`~repro.detectors.cache.DetectionScoreCache` so many
        sessions over one stream score each clip at most once (the
        multi-query scheduler passes one per video).  ``rate_book`` plus a
        ``share_key`` of ``(member name, group key)`` analogously attaches
        the fleet's shared rate estimators: dynamic sessions admitted under
        the same group key share one rate series and quota refresh.
        """
        config = config or OnlineConfig()
        evaluator = ClipEvaluator(
            zoo, video.meta, video.truth, query, config, cache=cache
        )
        policy = cls._build_policy(
            query.frame_level_labels,
            query.actions,
            video,
            config,
            dynamic=dynamic,
            k_crit_overrides=k_crit_overrides,
            rate_book=rate_book,
            share_key=share_key,
        )
        return cls(
            video, evaluator, policy, config,
            record_trace=record_trace, context=context,
        )

    @staticmethod
    def _build_policy(
        frame_labels: Iterable[str],
        action_labels: Iterable[str],
        video: LabeledVideo,
        config: OnlineConfig,
        *,
        dynamic: bool,
        k_crit_overrides: Mapping[str, int] | None,
        rate_book: "SharedRateBook | None" = None,
        share_key: tuple[str, object] | None = None,
    ) -> QuotaPolicy:
        geometry = video.meta.geometry
        if dynamic:
            if rate_book is not None and share_key is not None:
                name, group_key = share_key
                return rate_book.admit(
                    group_key, name, frame_labels, action_labels,
                    geometry, config,
                )
            return DynamicQuotaPolicy.from_config(
                frame_labels, action_labels, geometry, config
            )
        return StaticQuotaPolicy.from_config(
            frame_labels, action_labels, geometry, config,
            overrides=k_crit_overrides,
        )

    # -- introspection -----------------------------------------------------------

    @property
    def clip_index(self) -> int:
        """Number of clips processed so far (= the next expected clip id)."""
        self.sync()
        return self._clip_index

    @property
    def context(self) -> ExecutionContext:
        """The execution counters this session charges its work to."""
        self.sync()
        return self._context

    def fresh_evaluations(self) -> tuple[int, int]:
        """Object and action evaluations this session paid fresh so far:
        its counters plus what its feed's ledger books it for the rows
        consumed since the last :meth:`sync`, read without folding
        anything."""
        context, reader = self._context, self._reader
        objects = context.detector_invocations - context.detector_cache_hits
        actions = context.recognizer_invocations - context.recognizer_cache_hits
        if reader is not None:
            feed = reader.feed
            booked = feed.ledger.fresh(reader.slot, reader.synced, feed.cursor)
            objects, actions = objects + booked[0], actions + booked[1]
        return objects, actions

    @property
    def policy(self) -> QuotaPolicy:
        return self._policy

    # -- lifecycle ---------------------------------------------------------------

    def drain(self) -> None:
        """Announce that no further clips will arrive.

        DRAINING sits between the last :meth:`process` and :meth:`finish`
        — a cancelled or exhausted query that still owes its final result.
        Idempotent from RUNNING/DRAINING; a frozen or closed session
        cannot re-enter the pipeline.
        """
        if self._lifecycle in (SESSION_SNAPSHOTTED, SESSION_CLOSED):
            raise ConfigurationError(
                f"cannot drain a {self._lifecycle} session"
            )
        self._detach()
        self._lifecycle = SESSION_DRAINING

    def mark_snapshotted(self) -> None:
        """Freeze this instance after its state was captured for migration.

        The snapshot is the live copy from here on: a frozen session
        refuses :meth:`process` and :meth:`finish`, so two instances can
        never both advance the same logical query.  It can never emit
        again either, so its subscription is dropped (the callback is
        what ties a session back to the service that owns it; without it
        a dropped service is freed without waiting for the cycle GC).
        """
        if self._lifecycle == SESSION_CLOSED:
            raise ConfigurationError("cannot snapshot a finished session")
        self._detach()  # whoever drives the feed finds this session frozen
        self.set_emit_callback(None)
        self._lifecycle = SESSION_SNAPSHOTTED

    def set_emit_callback(
        self, on_emit: Callable[[Interval], None] | None
    ) -> None:
        """Subscribe to result sequences the moment they close.

        The callback fires for sequences closed by :meth:`process` and for
        the final open run closed by :meth:`finish`; sequences restored
        from a checkpoint are not re-emitted.  The service layer uses this
        to push results incrementally instead of waiting for end-of-stream.
        """
        self._on_emit = on_emit
        self._assembler.on_emit = on_emit

    def quotas(self) -> dict[str, int]:
        """Current per-predicate critical values."""
        return self._policy.quotas()

    def _order_override(self, clip_id: int | None = None) -> list[str] | None:
        """The optimizer's order, or None when the user order stands — the
        hot loop passes None through so the evaluator can take its
        precomputed fast path (identical semantics to the user order).

        Dynamic sessions refresh per clip; static adaptive sessions pass
        the clip id and refresh once per chunk-aligned epoch, so the
        serial and chunked paths reorder on identical boundaries.
        """
        if not self._adaptive:
            return None
        if clip_id is not None and not self._policy.dynamic and self._epoch_clips:
            order = self._optimizer.order_for_epoch(clip_id // self._epoch_clips)
        else:
            order = self._optimizer.current_order()
        return list(order) if order is not None else None

    def _sync_reorders(self) -> None:
        """Mirror newly-counted order changes into the execution stats."""
        reorders = self._optimizer.reorders
        if reorders != self._reorders_seen:
            self._context.conjunct_reorders += reorders - self._reorders_seen
            self._reorders_seen = reorders

    def selectivity_estimates(self) -> dict[str, float | None]:
        """Empirical per-predicate firing rates from probe clips.

        ``None`` (not NaN) for labels no probe has observed yet, so the
        payload stays valid under strict JSON (``--stats-json``, the
        service health endpoint)."""
        self.sync()
        return self._optimizer.selectivity_estimates()

    @property
    def chunkable(self) -> bool:
        """Whether this session takes the block path."""
        return self._chunkable

    @staticmethod
    def _takes_blocks(
        config: OnlineConfig, cache: DetectionScoreCache | None
    ) -> bool:
        """Sessions with a cache — conjunctive or CNF — walk a cache
        chunk's columns with a cursor: static quotas freeze the clause
        program's inputs for the whole chunk (the block kernel), dynamic
        ones are stepped row by row on the cached counts; adaptive
        ordering composes with both.  Armed fault tolerance needs the
        per-clip retry/degradation path, and a cache-free session has no
        columns to walk.  A fleet shares rate groups on this path only."""
        return not config.fault_tolerant and cache is not None

    @property
    def predicate_labels(self) -> tuple[str, ...]:
        """All predicate labels, in the user's order (for fleet planning)."""
        return self._labels

    def set_label_sharing(self, degrees: Mapping[str, int]) -> None:
        """Receive the fleet's label → live-query-count map; shared labels
        rank cheaper under cost ordering (their fresh inference amortises
        across sessions through the shared detection cache)."""
        self._optimizer.set_sharing(degrees)

    # -- streaming --------------------------------------------------------------

    def _check_running(self) -> None:
        if self._finished:
            raise ConfigurationError("session already finished")
        if self._lifecycle != SESSION_RUNNING:
            raise ConfigurationError(
                f"cannot process clips in a {self._lifecycle} session"
            )

    def advance(
        self, clips: Iterable[ClipView], *, short_circuit: bool = True
    ) -> None:
        """Evaluate a run of clips that continues the stream
        (:func:`clip_run`) and fold them into the state.

        A chunkable session consumes the run with one feed call per cache
        chunk (a block also ends after a probe under an adaptive dynamic
        order) and folds once; fleets advance their sessions together
        (:meth:`FleetRun.advance`).
        """
        self._check_running()
        reader = self._reader  # the rows it consumed may not be folded yet
        feed = reader and reader.feed
        expected = self._assembler.next_clip if feed is None else feed.lo + feed.cursor
        run = clip_run(clips, expected, self._video.meta)
        if not self._chunkable:
            for clip_id in run:
                self._process_clip(clip_id, short_circuit)
            return
        cache, clip_id = self._evaluator.cache, run.start
        while clip_id < run.stop:
            feed = ChunkFeed.step(
                feed, cache, (self,), clip_id, short_circuit, run.stop - clip_id
            )
            clip_id = feed.lo + feed.cursor
        self.sync()

    # -- the block path: kernel -> columns -> cursor -> sync ----------------------------

    def _block_plan(self, clip_id: int) -> BlockPlan:
        """This session's kernel input for a block starting at ``clip_id``
        (the adaptive order is decided here, once per epoch)."""
        order = None
        dynamic = self._policy.dynamic
        if self._adaptive:
            order = self._order_override(clip_id)
            self._sync_reorders()
        plan = self._evaluator.plan(order)
        return plan._replace(
            quotas=()
            if dynamic
            else tuple(self._static_quotas[l] for l in plan.labels),
            probe_every=self._config.probe_every
            if dynamic or self._adaptive
            else 0,
            probe_offset=self._clip_index,
        )

    def _attach(
        self,
        feed: ChunkFeed,
        slot: int,
        kernel_s: float,
        flips: list[int] | None,
    ) -> None:
        """Start reading ``feed`` at its first row; ``kernel_s`` is this
        session's share of the feed's construction wall.  ``flips`` is a
        dynamic group's growing list; a static block's are known now."""
        self._context.add_stage_time(STAGE_EVALUATE, kernel_s)
        if flips is None:
            run_open = self._assembler.run_open
            flips = [feed.lo + row for row in feed.blocks[slot].flips(run_open)]
            for clip in flips[0 if run_open else 1 :: 2]:
                feed.closing.setdefault(clip, []).append(slot)
        self._reader = _FeedReader(feed, slot, flips)

    def _detach(self) -> None:
        """Fold what was consumed and let go of the feed; unconsumed rows
        were never charged.  The feed counts as used up from here on, so
        the members still on it re-evaluate at their next step."""
        self._last_evaluation()
        if self._reader is not None:
            feed = self._reader.feed
            feed.n = feed.cursor
            self._reader = None

    def _last_evaluation(self) -> ClipEvaluation | None:
        """The newest evaluation — the guard-band lookahead's pending
        clip.  The block path builds it only when it is read."""
        reader = self._reader
        if reader is not None:
            self.sync()
            if reader.synced:
                self._pending = reader.block.rows(
                    reader.synced - 1, reader.synced
                )[0]
        return self._pending

    def emit_closed(self) -> None:
        """Feed the assembler the rows consumed since it was last fed:
        the sequences that end there close, and ``on_emit`` fires."""
        reader = self._reader
        feed = reader.feed
        a, b = reader.assembled, feed.cursor
        reader.assembled = b
        first = reader.flip_at
        stop = reader.flip_at = bisect_left(reader.flips, feed.lo + b, first)
        self._context.sequences_emitted += self._assembler.extend(
            feed.lo + a, b - a, reader.flips[first:stop]
        )

    def sync(self) -> None:
        """Fold the block rows consumed since the last call into the
        observable state: counters, sequences (firing ``on_emit``), probe
        statistics, the guard-band lookahead and the evaluation log.  Runs
        before anything reads that state; a no-op on the per-clip path."""
        reader = self._reader
        if reader is None or reader.synced == reader.feed.cursor:
            return
        start = time.perf_counter()
        feed = reader.feed
        block = reader.block
        a, b = reader.synced, feed.cursor
        reader.synced = b
        n = b - a
        context = self._context
        evaluated, objects, actions = block.evaluation_counts(a, b)
        fresh_objects, fresh_actions = feed.ledger.fresh(reader.slot, a, b)
        context.detector_invocations += objects
        context.detector_cache_hits += objects - fresh_objects
        context.recognizer_invocations += actions
        context.recognizer_cache_hits += actions - fresh_actions
        context.clips_processed += n
        context.predicates_evaluated += evaluated
        context.predicates_skipped += self._n_labels * n - evaluated
        probe_every = block.plan.probe_every
        if probe_every > 0:
            # Probe rows evaluated every predicate (see the kernel and the
            # stepper), so each label observes all of them.
            first = a + -self._clip_index % probe_every
            probes = len(range(first, b, probe_every))
            if probes:
                context.probe_clips += probes
                for at, label in enumerate(block.plan.labels):
                    fired = np.count_nonzero(
                        block.indicators(at, first, b)[::probe_every]
                    )
                    self._optimizer.observe(label, fired, probes)
        self._clip_index += n
        self.emit_closed()
        stepped_s = 0.0
        if block.fired is not None:
            # The stepper ran the quota updates (every clip but the
            # session's first has a pending clip to fold); its wall is
            # split evenly over the members it serves.
            carried = a > 0 or self._pending is not None
            context.quota_refreshes += n if carried else n - 1
            stepped_s = (feed.stepped_s - reader.stepped_s) / feed.stepping
            reader.stepped_s = feed.stepped_s
        # The guard-band lookahead: the clip before the pending one.
        if b > 1:
            self._prev_positive = bool(block.positive[b - 2])
        elif self._pending is not None:
            self._prev_positive = self._pending.positive
        self._evaluations.extend_columns(block, a, b)
        if self._record_trace:
            labels = self._policy.quotas()
            if block.quotas is None:  # static: they never move
                self._trace.extend(dict(labels) for _ in range(n))
            else:
                self._trace.extend(
                    dict(zip(labels, row)) for row in block.quotas[a:b]
                )
        context.add_stage_time(
            STAGE_EVALUATE, time.perf_counter() - start + stepped_s
        )

    def process(
        self, clip: ClipView, *, short_circuit: bool = True
    ) -> ClipEvaluation | None:
        """Evaluate one clip and fold it into the session state:
        :meth:`advance` over one clip; returns its evaluation."""
        self.advance((clip,), short_circuit=short_circuit)
        return self._last_evaluation()

    def _process_clip(self, clip_id: int, short_circuit: bool) -> None:
        """The per-clip pipeline (armed fault tolerance, no cache)."""
        context = self._context
        dynamic = self._policy.dynamic
        probe_every = self._config.probe_every
        # Adaptive static sessions probe too — their selectivity estimates
        # need unbiased observations just like the dynamic estimators do.
        probing = (
            (dynamic or self._adaptive)
            and probe_every > 0
            and self._clip_index % probe_every == 0
        )
        quotas = (
            self._static_quotas
            if self._static_quotas is not None
            else self._policy.quotas()
        )
        if self._record_trace:
            self._trace.append(dict(quotas))
        order = self._order_override(clip_id)
        if self._adaptive:
            self._sync_reorders()
        start = time.perf_counter()
        evaluation = self._evaluator.evaluate(
            clip_id,
            quotas,
            short_circuit=short_circuit and not probing,
            order=order,
        )
        context.add_stage_time(STAGE_EVALUATE, time.perf_counter() - start)
        evaluated_n = 0
        for outcome in evaluation.outcomes:
            if outcome.evaluated:
                evaluated_n += 1
        if probing:
            context.probe_clips += 1
            for outcome in evaluation.outcomes:
                # Degraded outcomes carry no fresh model evidence, so they
                # must not teach the selectivity estimator.
                if outcome.evaluated and not outcome.degraded:
                    self._optimizer.observe(outcome.label, outcome.indicator)
        self._clip_index += 1
        context.clips_processed += 1
        context.predicates_evaluated += evaluated_n
        context.predicates_skipped += self._n_labels - evaluated_n
        if self._armed and evaluation.degraded:
            context.clips_degraded += 1
            self._degraded_clips.append(clip_id)
        self._evaluations.append(evaluation)
        start = time.perf_counter()
        emitted = self._assembler.push(clip_id, evaluation.positive)
        context.add_stage_time(STAGE_ASSEMBLE, time.perf_counter() - start)
        if emitted is not None:
            context.sequences_emitted += 1
        pending = self._pending
        if dynamic:
            start = time.perf_counter()
            if pending is not None:
                self._policy.update(
                    pending.by_label(),
                    positive=pending.positive,
                    in_guard_band=self._prev_positive or evaluation.positive,
                )
                context.quota_refreshes += 1
                self._prev_positive = pending.positive
            context.add_stage_time(STAGE_QUOTAS, time.perf_counter() - start)
        elif pending is not None:
            # Static quotas never move (the policy update is a no-op by
            # design), so the quotas stage reduces to guard-band tracking.
            self._prev_positive = pending.positive
        self._pending = evaluation

    def finish(self) -> OnlineResult:
        """Close the stream and return the run's result."""
        if self._lifecycle == SESSION_SNAPSHOTTED:
            raise ConfigurationError(
                "a snapshotted session is frozen; resume the captured "
                "state in a new instance instead"
            )
        if not self._finished:
            self._detach()
            start = time.perf_counter()
            if self._pending is not None:
                if self._policy.dynamic:
                    self._policy.update(
                        self._pending.by_label(),
                        positive=self._pending.positive,
                        in_guard_band=self._prev_positive,
                    )
                    self._context.quota_refreshes += 1
                self._pending = None
            self._context.add_stage_time(
                STAGE_QUOTAS, time.perf_counter() - start
            )
            start = time.perf_counter()
            emitted = self._assembler.finish()
            self._context.add_stage_time(
                STAGE_ASSEMBLE, time.perf_counter() - start
            )
            if emitted is not None:
                self._context.sequences_emitted += 1
            if self._degraded_clips:
                self._context.sequences_degraded += len(
                    degraded_sequence_spans(
                        self._assembler.result(),
                        tuple(self._degraded_clips),
                    )
                )
            self._finished = True
            self._lifecycle = SESSION_CLOSED
            self._final_stats = self._context.snapshot()
        return OnlineResult(
            query=self._evaluator.query,
            video_id=self._video.video_id,
            sequences=self._assembler.result(),
            evaluations=(
                self._evaluations
                if self._chunkable
                else tuple(self._evaluations)
            ),
            final_rates=self._policy.rates(),
            k_crit_trace=tuple(self._trace) if self._record_trace else (),
            stats=self._final_stats,
            degraded_clips=tuple(self._degraded_clips),
            selectivity=self.selectivity_estimates(),
        )

    # -- checkpointing -------------------------------------------------------------

    def state_dict(self) -> StateDict:
        """Complete dynamic state, JSON-serialisable.

        Captures everything that influences future decisions: the quota
        policy's state (estimators or static quotas), the open result run,
        the guard-band lookahead and the probe counter.  Already-emitted
        sequences are included so the resumed session's final result is
        the full stream's.  The detection score cache's charge bookkeeping
        rides along, so a resumed session keeps metering already-charged
        clips as cache hits rather than re-charging fresh model units.
        """
        if self._finished:
            raise ConfigurationError("cannot checkpoint a finished session")
        pending = self._last_evaluation()  # folds the feed's rows first
        cache = self._evaluator.cache
        return write_record(SessionCheckpoint(
            version=CHECKPOINT_VERSION,
            clip_index=self._clip_index,
            prev_positive=self._prev_positive,
            pending=pending,
            policy=self._policy.state_dict(),
            assembler=self._assembler.state_dict(),
            optimizer=self._optimizer.state_dict(),
            trace=self._trace,
            cache=cache.state_dict() if cache is not None else None,
            # Fault-tolerance state.  The degraded-clip list feeds the
            # final result/stats; the held estimates make a resumed
            # ``hold_last_estimate`` session replay the same counts the
            # uninterrupted run would.
            degraded_clips=self._degraded_clips,
            held=self._evaluator.held_state(),
        ))

    def load_state_dict(self, state: StateDict) -> "StreamSession":
        """Restore the dynamic state captured by :meth:`state_dict`.

        The deterministic components (models, video, query, config) are
        reconstructed by the caller — build the session exactly as the
        checkpointed one was built, then load.  Returns ``self``.

        Reads exactly :data:`CHECKPOINT_VERSION`: nothing else is ever
        written by this build, so anything else is refused rather than
        guessed at.  The rest is read as :class:`SessionCheckpoint`
        declares it.
        """
        record = read_record(SessionCheckpoint, state, "session checkpoint")
        pending = record.pending
        if pending is not None:
            pending = evaluation_from_dict(pending, self._evaluator.plan())
        self._evaluator.load_held_state(record.held)
        self._clip_index = record.clip_index
        self._prev_positive = record.prev_positive
        self._pending = pending
        self._degraded_clips = record.degraded_clips
        self._trace = record.trace
        self._reader = None
        self._lifecycle = SESSION_RUNNING
        self._finished = False
        self._policy.load_state_dict(record.policy)
        if not self._policy.dynamic:
            self._static_quotas = self._policy.quotas()
        cache = self._evaluator.cache
        if record.cache is not None and cache is not None:
            cache.load_state_dict(record.cache)
        self._assembler = SequenceAssembler.from_state_dict(
            record.assembler, on_emit=self._on_emit
        )
        self._optimizer.load_state_dict(record.optimizer)
        self._reorders_seen = self._optimizer.reorders
        return self
