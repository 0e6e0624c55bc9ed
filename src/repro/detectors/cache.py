"""Cross-query detection score cache — the shared half of the online hot
path.

The paper's online algorithms charge one model invocation per predicate per
clip (Algorithm 2).  When many queries watch the same stream — the
monitoring deployments of *Video Monitoring Queries* (Koudas et al.) — most
of those invocations ask a model a question it has already answered for
another session: "how many frames of clip ``c`` show a ``car``?".

:class:`DetectionScoreCache` materialises, per ``(detector kind, label)``,
a **count column**: the number of above-threshold predictions inside every
clip of one video.  Columns are built lazily in chunks of
``chunk_clips`` clips with one vectorised reshape/sum pass over the
model's whole-video firing indicator (or its ``score >= model.threshold``
vector: a fault-injected zoo, a model that only scores), so each clip's
count is computed at most once per cache.

Metering stays exact (the Table-8 invariant).  Scoring work and
*charging* are decoupled: materialising a chunk charges nothing; a
session is charged when it **evaluates** a predicate on a clip, exactly
as the serial Algorithm-2 path charges it.  The first evaluation of a
``(kind, label, clip)`` anywhere in the process charges *fresh* model
units to the :class:`~repro.detectors.cost.CostMeter` (same units, same
``ms_per_unit`` as the uncached path); every later evaluation — another
session re-asking — records the same units as *cached* via
:meth:`CostMeter.record_cached`.  Hence for any workload::

    serial fresh units  ==  shared fresh units + shared cached units

per model, and a single session over a cold cache meters identically to
the uncached serial path.

The block path charges through one :class:`ChargeLedger` per feed: the
feed only moves its consumed mark, and the consumed rows are decided and
booked by difference when someone looks — a meter read, a session's
``sync``, a stand-down or the ledger's end — so a one-clip step charges
nothing itself.  A cache has at most one standing ledger, released before
anyone else touches ``charged``; the cache holds it, and it holds the
cache only weakly.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.detectors.zoo import ModelZoo
from repro.errors import ConfigurationError, CorruptedOutputError
from repro.utils.validation import Count, read_record, write_record
from repro.video.ground_truth import GroundTruth
from repro.video.model import VideoMeta
from repro._typing import StateDict

_KINDS = ("object", "action")


def _runs_of(mask: np.ndarray) -> list[tuple[int, int]]:
    """Encode a boolean array as inclusive ``[start, end]`` runs of True."""
    if not mask.any():
        return []
    padded = np.diff(np.concatenate(([0], mask.view(np.int8), [0])))
    starts = np.flatnonzero(padded == 1)
    ends = np.flatnonzero(padded == -1) - 1
    return [(int(s), int(e)) for s, e in zip(starts, ends)]


class DetectionScoreCache:
    """Per-video, per-``(kind, label)`` columns of per-clip detection counts.

    One cache serves any number of sessions over the same video and the
    same zoo (validated when an evaluator attaches).  Materialisation is
    guarded by a lock so the thread executor of
    :meth:`repro.core.engine.OnlineEngine.run_queries_many` could share
    one safely, though the intended deployment is one cache per video
    stream.
    """

    #: Not checkpointed (RL002): the zoo/video/truth handles and the
    #: chunk/unit geometry are constructor inputs — the caller rebuilds
    #: the cache identically before ``load_state_dict``, which
    #: restores only the mutable charge bookkeeping (count columns are
    #: re-materialised on demand and scored identically by construction).
    _CHECKPOINT_EXCLUDE = frozenset(
        {"_zoo", "_video", "_truth", "_chunk", "_units", "_lock",
         "_n_chunks", "_counts", "_ready", "_ledger"}
    )

    def __init__(
        self,
        zoo: ModelZoo,
        video: VideoMeta,
        truth: GroundTruth,
        *,
        chunk_clips: int = 64,
    ) -> None:
        if chunk_clips < 1:
            raise ConfigurationError(
                f"chunk_clips must be >= 1; got {chunk_clips}"
            )
        self._zoo = zoo
        self._video = video
        self._truth = truth
        self._chunk = int(chunk_clips)
        n_clips = video.n_clips
        self._n_clips = n_clips
        self._units = {
            "object": video.geometry.frames_per_clip,
            "action": video.geometry.shots_per_clip,
        }
        self._n_chunks = -(-n_clips // self._chunk)
        #: (kind, label) -> int64 per-clip count column (chunk-materialised)
        self._counts: dict[tuple[str, str], np.ndarray] = {}
        #: (kind, label) -> bytearray flagging materialised chunks
        self._ready: dict[tuple[str, str], bytearray] = {}
        #: (kind, label) -> bool column: fresh units already charged
        self._charged: dict[tuple[str, str], np.ndarray] = {}
        #: The one ledger whose decisions stand against ``_charged``.
        self._ledger: ChargeLedger | None = None
        self._lock = threading.Lock()

    # -- introspection -----------------------------------------------------------

    @property
    def video_id(self) -> str:
        return self._video.video_id

    @property
    def n_clips(self) -> int:
        return self._n_clips

    @property
    def chunk_clips(self) -> int:
        """Clips per lazily-materialised block (the vectorisation grain)."""
        return self._chunk

    def units_per_clip(self, kind: str) -> int:
        return self._units[kind]

    def check_compatible(self, video: VideoMeta, zoo: ModelZoo) -> None:
        """Reject attaching an evaluator over another video or another zoo —
        a shared column must answer every session's question identically,
        and charge the meter of the zoo that asked."""
        if video.video_id != self._video.video_id:
            raise ConfigurationError(
                f"cache holds video {self._video.video_id!r}, "
                f"not {video.video_id!r}"
            )
        if video.geometry != self._video.geometry:
            raise ConfigurationError(
                f"cache geometry differs for video {video.video_id!r}"
            )
        if zoo is not self._zoo:
            raise ConfigurationError(
                "cache was built on another model zoo; sessions sharing a "
                "cache must share one zoo"
            )

    # -- the hot path -------------------------------------------------------------

    def lookup(self, kind: str, label: str, clip_id: int) -> tuple[int, int, bool]:
        """Count and units for one predicate on one clip, with charging.

        Returns ``(count, units, fresh)``.  ``fresh`` is True when this is
        the first evaluation of ``(kind, label, clip_id)`` through this
        cache: fresh model units are charged to the zoo's cost meter at
        the model's per-unit latency, exactly as the uncached
        ``score_clip`` path charges them.  Later evaluations record the
        same units as cached.
        """
        col = self._column(kind, label, clip_id, clip_id + 1)
        units = self._units[kind]
        self._release()
        charged = self._charged[kind, label]
        fresh = not charged[clip_id]
        model = self._zoo.detector if kind == "object" else self._zoo.recognizer
        if fresh:
            charged[clip_id] = True
            self._zoo.cost_meter.record(
                model.name, units, model.profile.ms_per_unit
            )
        else:
            self._zoo.cost_meter.record_cached(model.name, units)
        return int(col[clip_id]), units, fresh

    def counts_block(
        self, kind: str, label: str, lo: int, hi: int
    ) -> np.ndarray:
        """Charge-free count column slice for clips ``[lo, hi)``,
        materialising any missing chunks.  The block kernel reads whole
        columns through this instead of per-clip :meth:`lookup`."""
        return self._column(kind, label, lo, hi)[lo:hi]

    def _release(self) -> None:
        """Have the standing ledger write its booked rows into ``charged``
        before anyone else reads or writes it."""
        if self._ledger is not None:
            self._ledger.release()

    def counts(self, kind: str, label: str, clip_id: int) -> tuple[int, int]:
        """Charge-free peek at one clip's count (diagnostics, tests)."""
        col = self._column(kind, label, clip_id, clip_id + 1)
        return int(col[clip_id]), self._units[kind]

    def _column(self, kind: str, label: str, lo: int, hi: int) -> np.ndarray:
        """The count column, every chunk over clips ``[lo, hi)`` built."""
        first = lo // self._chunk
        last = (hi - 1) // self._chunk
        ready = self._ready.get((kind, label))
        if ready is None or not all(ready[first : last + 1]):
            for chunk in range(first, last + 1):
                self._materialise(kind, label, chunk * self._chunk)
        return self._counts[kind, label]

    def _materialise(self, kind: str, label: str, clip_id: int) -> None:
        """Build the chunk of the count column containing ``clip_id``.

        One vectorised pass: take the firing indicator over the chunk's
        span, reshape to ``(clips, units_per_clip)`` and sum — each clip's
        Eq. 1/2 count in one shot.  Scoring charges nothing; charging
        follows evaluation.
        """
        key = (kind, label)
        with self._lock:
            col = self._counts.get(key)
            if col is None:
                col = np.zeros(self._n_clips, dtype=np.int64)
                self._counts[key] = col
                self._ready[key] = bytearray(self._n_chunks)
                self._charged.setdefault(key, np.zeros(self._n_clips, dtype=bool))
            chunk = clip_id // self._chunk
            if self._ready[key][chunk]:
                return
            units = self._units[kind]
            lo_clip = chunk * self._chunk
            hi_clip = min(self._n_clips, lo_clip + self._chunk)
            model = self._zoo.detector if kind == "object" else self._zoo.recognizer
            # Looked up on the type: a fault-injecting wrapper forwards
            # unknown attributes to the model it wraps, and the indicator
            # read through it would skip the call its faults roll on.
            firing_video = getattr(type(model), "firing_video", None)
            if firing_video is not None:
                firing = firing_video(model, self._video, self._truth, label)
                mask = firing[lo_clip * units : hi_clip * units]
            else:
                scores = model.score_video(self._video, self._truth, label)
                span = scores[lo_clip * units : hi_clip * units]
                if not np.isfinite(span).all():
                    # Corrupted model output must not become count-column
                    # truth; the chunk stays unmaterialised (nothing was
                    # written), so a retried lookup re-scores it cleanly.
                    raise CorruptedOutputError(
                        f"{kind} scores for {label!r} contain non-finite "
                        f"values in clips [{lo_clip}, {hi_clip})"
                    )
                mask = span >= model.threshold
            col[lo_clip:hi_clip] = mask.reshape(-1, units).sum(axis=1)
            self._ready[key][chunk] = True

    # -- checkpointing -----------------------------------------------------------

    def state(self) -> CacheState:
        """The charge bookkeeping (counts are derived data and rebuild
        identically; only *who has been charged* is state)."""
        self._release()
        return CacheState({
            f"{kind}:{label}": _runs_of(charged)
            for (kind, label), charged in self._charged.items()
            if charged.any()
        })

    def state_dict(self) -> StateDict:
        return write_record(self.state())

    def load_state_dict(self, state: StateDict | CacheState) -> None:
        """Mark clips as already-fresh-charged without charging the meter
        (their units were metered before the checkpoint was taken).  Runs
        must ascend and end inside the video, or nothing is marked."""
        charged = read_record(CacheState, state, "cache checkpoint").charged
        for key, runs in charged.items():
            if key.partition(":")[0] not in _KINDS:
                raise ConfigurationError(
                    f"unknown detector kind in {key!r} in cache checkpoint"
                )
            starts, ends = np.array(runs, dtype=np.int64).reshape(-1, 2).T
            if len(runs) and not (
                (starts <= ends).all()
                and (starts[1:] > ends[:-1]).all()
                and ends[-1] < self._n_clips
            ):
                raise ConfigurationError(
                    f"cache checkpoint runs for {key!r} must be ascending "
                    f"[start, end] pairs below {self._n_clips}; got {runs!r}"
                )
        self._release()
        for key, runs in charged.items():
            kind, _, label = key.partition(":")
            column = self._charged.setdefault(
                (kind, label), np.zeros(self._n_clips, dtype=bool)
            )
            for start, end in runs:
                column[start : end + 1] = True


@dataclass(frozen=True)
class CacheState:
    """:meth:`DetectionScoreCache.state_dict`: the charged runs per ``kind:label``."""

    charged: dict[str, list[tuple[Count, Count]]]


class ChargeLedger:
    """Who pays for one feed's rows, the bulk twin of ``lookup``'s charging.

    ``columns[j]`` is ``(kind, label, times, owners)`` over the clips
    ``[lo, lo + n)``: ``times[i]`` sessions evaluated the label on row
    ``i`` (0 charges nothing) and ``owners[i]`` is the first of them in
    fleet order — the slot the per-clip order charges fresh, if the clip
    is charged nowhere yet.  The feed moves ``consumed``; the rows behind
    it are booked once each when someone looks (:meth:`book`), decided
    against the ``charged`` flags taken when the ledger last stood: from
    its opening until :meth:`release` (the feed stands it again).
    """

    standing = False  # seen by the cache and the meter (:meth:`stand`)

    def __init__(
        self, cache: DetectionScoreCache, lo: int, n: int,
        columns: Sequence[tuple[str, str, list[int], list[int]]], slots: int,
    ) -> None:
        self._cache = weakref.ref(cache)
        self._lo = lo
        self._columns = columns
        zoo = cache._zoo
        self._meter = zoo.cost_meter
        #: Per kind: where a totals row holds its evaluations and its fresh
        #: charges, and its model's name, units a clip and ms a unit.
        self._models = [
            (k, k + 2, model.name, cache.units_per_clip(kind), model.profile.ms_per_unit)
            for k, (kind, model) in enumerate(zip(_KINDS, (zoo.detector, zoo.recognizer)))
        ]
        #: Rows the feed consumed, and how many of them are booked.
        self.consumed = self._booked = 0
        #: Before row ``i``: evaluations and fresh charges per kind, then
        #: each slot's fresh charges per kind; valid up to ``_booked``.
        self._totals = [(0,) * (4 + 2 * slots)] * (n + 1)
        self.stand()

    def stand(self) -> None:
        """Have the standing ledger stand down, take the rows' charged
        flags as they are now and be seen by the cache and the meter."""
        cache = self._cache()
        assert cache is not None  # the feed's sessions hold it
        with self._meter._lock:
            cache._release()
            cache._ledger, self.standing = self, True
            self._meter._standing.add(self)
            # Per label: kind index, times, owners and charged flags.
            self._rows = [
                (_KINDS.index(kind), times, owners, bytearray(
                    cache._charged[kind, label][self._lo :][: len(times)]
                ))
                for kind, label, times, owners in self._columns
            ]

    def book(self) -> None:
        """Charge the meter for rows ``[booked, consumed)``: a meter read,
        a stand-down, a session's ``sync`` or ``fresh_evaluations`` and the
        ledger's end call this."""
        meter = self._meter
        with meter._lock:
            a, b = self._booked, self.consumed
            if a == b:
                return
            self._decide(b)
            self._booked = b
            then, now = self._totals[a], self._totals[b]
            for k, f, name, units, ms_per_unit in self._models:
                fresh = now[f] - then[f]
                cached = now[k] - then[k] - fresh
                if fresh:
                    meter.record(name, fresh * units, ms_per_unit)
                if cached:
                    meter.record_cached(name, cached * units)

    def fresh(self, slot: int, a: int, b: int) -> tuple[int, int]:
        """Object and action evaluations ``slot`` paid fresh on the consumed
        rows ``[a, b)``, booked first."""
        if self._booked < b:
            self.book()
        then, now, j = self._totals[a], self._totals[b], 4 + 2 * slot
        return now[j] - then[j], now[j + 1] - then[j + 1]

    def release(self) -> None:
        """Book the consumed rows, mark them charged and stand down."""
        cache = self._cache()
        assert cache is not None  # it is the cache that releases
        with self._meter._lock:
            if self._booked < self.consumed:
                self.book()
            lo, b = self._lo, self._booked
            for kind, label, times, _ in self._columns:
                cache._charged[kind, label][lo : lo + b] |= np.asarray(times[:b]) > 0
            cache._ledger, self.standing = None, False
            self._meter._standing.discard(self)

    def __del__(self) -> None:  # freed with its cache mid-chunk: still charged
        if self.standing and self._booked < self.consumed:
            self.book()

    def _decide(self, upto: int) -> None:
        """Decide rows ``[booked, upto)`` against the flags taken at stand."""
        sums, totals = list(self._totals[self._booked]), self._totals
        for i in range(self._booked, upto):
            for k, times, owners, charged in self._rows:
                asked = times[i]
                if asked:
                    sums[k] += asked
                    if not charged[i]:
                        sums[k + 2] += 1
                        sums[4 + 2 * owners[i] + k] += 1
            totals[i + 1] = tuple(sums)
