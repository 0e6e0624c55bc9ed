"""Result-sequence assembly (Eq. 4) for streaming and batch use.

Positive clips are merged into maximal runs — the *result sequences*
``P_q = {(c_l, c_r)}``.  The batch form is a one-liner over
:class:`repro.utils.intervals.IntervalSet`; the streaming form below tracks
the open run so the online engines can *emit* each sequence the moment it
closes, which is what "reporting results as the video streams" requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import VideoModelError
from repro.utils.intervals import Interval, IntervalSet
from repro.utils.validation import Count, read_record, write_record
from repro._typing import StateDict


@dataclass
class SequenceAssembler:
    """Streaming merger of per-clip indicators into result sequences.

    Feed ``push(clip_id, positive)`` in clip order; completed sequences are
    appended to :attr:`closed` (and passed to ``on_emit`` if given) as soon
    as the first negative clip after a positive run arrives.  ``finish()``
    closes a run that reaches the end of the stream.
    """

    on_emit: Callable[[Interval], None] | None = None
    closed: list[Interval] = field(default_factory=list)
    _run_start: int | None = field(default=None, repr=False)
    _last_clip: int | None = field(default=None, repr=False)
    _finished: bool = field(default=False, repr=False)

    def push(self, clip_id: int, positive: bool) -> Interval | None:
        """Record one clip; returns the sequence this clip just closed,
        if any."""
        if self._finished:
            raise VideoModelError("push() after finish()")
        if self._last_clip is not None and clip_id != self._last_clip + 1:
            raise VideoModelError(
                f"clips must arrive in order; got {clip_id} after {self._last_clip}"
            )
        self._last_clip = clip_id
        emitted: Interval | None = None
        if positive:
            if self._run_start is None:
                self._run_start = clip_id
        elif self._run_start is not None:
            emitted = Interval(self._run_start, clip_id - 1)
            self._emit(emitted)
            self._run_start = None
        return emitted

    def extend(
        self, first_clip: int, n_clips: int, flips: Iterable[int]
    ) -> int:
        """Bulk :meth:`push` of ``n_clips`` consecutive clips starting at
        ``first_clip``, run-length encoded: the indicator starts out as it
        was left (positive iff a run is open) and changes at each clip id
        in ``flips``.  Every sequence that closes goes through ``on_emit``
        in order; returns how many did."""
        if self._finished:
            raise VideoModelError("push() after finish()")
        if self._last_clip is not None and first_clip != self._last_clip + 1:
            raise VideoModelError(
                f"clips must arrive in order; got {first_clip} after "
                f"{self._last_clip}"
            )
        self._last_clip = first_clip + n_clips - 1
        emitted = 0
        for clip_id in flips:
            if self._run_start is None:
                self._run_start = clip_id
            else:
                closed = Interval(self._run_start, clip_id - 1)
                self._run_start = None
                self._emit(closed)
                emitted += 1
        return emitted

    @property
    def next_clip(self) -> int | None:
        """The clip id the next push must carry (``None``: any, none yet)."""
        return None if self._last_clip is None else self._last_clip + 1

    @property
    def run_open(self) -> bool:
        """Whether a positive run is open (the next negative clip emits)."""
        return self._run_start is not None

    def finish(self) -> Interval | None:
        """Close the stream; returns the final open sequence, if any."""
        if self._finished:
            return None
        self._finished = True
        if self._run_start is None or self._last_clip is None:
            return None
        emitted = Interval(self._run_start, self._last_clip)
        self._emit(emitted)
        self._run_start = None
        return emitted

    def _emit(self, interval: Interval) -> None:
        self.closed.append(interval)
        if self.on_emit is not None:
            self.on_emit(interval)

    def result(self) -> IntervalSet:
        """All sequences emitted so far as an interval set (``P_q``)."""
        return IntervalSet(self.closed)

    # -- checkpointing -------------------------------------------------------------

    def state(self) -> AssemblerState:
        """Closed sequences, the open run and the last clip seen —
        everything the merge logic depends on."""
        closed = [iv.as_tuple() for iv in self.closed]
        return AssemblerState(closed, self._run_start, self._last_clip, self._finished)

    def state_dict(self) -> StateDict:
        return write_record(self.state())

    @classmethod
    def from_state_dict(
        cls,
        state: StateDict | AssemblerState,
        on_emit: Callable[[Interval], None] | None = None,
    ) -> "SequenceAssembler":
        """Rebuild an assembler from :meth:`state_dict` output, read as
        :class:`AssemblerState` declares it.

        Restored sequences are *not* re-emitted through ``on_emit``; only
        sequences closed after the restore point fire the callback.
        """
        record = read_record(AssemblerState, state, "assembler checkpoint")
        assembler = cls(on_emit=on_emit)
        assembler.closed.extend(Interval(start, end) for start, end in record.closed)
        assembler._run_start = record.run_start
        assembler._last_clip = record.last_clip
        assembler._finished = record.finished
        return assembler


@dataclass(frozen=True)
class AssemblerState:
    """:meth:`SequenceAssembler.state_dict`."""

    closed: list[tuple[Count, Count]]
    run_start: Count | None
    last_clip: Count | None
    finished: bool


def merge_indicators(flags: Iterable[bool], offset: int = 0) -> IntervalSet:
    """Batch Eq. 4: merge an indicator sequence into result sequences."""
    return IntervalSet.from_indicator(list(flags), offset=offset)
