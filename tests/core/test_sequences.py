"""Streaming sequence assembly (Eq. 4)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.sequences import SequenceAssembler
from repro.errors import VideoModelError
from repro.utils.intervals import Interval, IntervalSet
from tests.reference.intervals import from_indicator


class TestAssembler:
    def test_emits_on_close(self):
        asm = SequenceAssembler()
        assert asm.push(0, True) is None
        assert asm.push(1, True) is None
        closed = asm.push(2, False)
        assert closed == Interval(0, 1)

    def test_finish_closes_open_run(self):
        asm = SequenceAssembler()
        asm.push(0, False)
        asm.push(1, True)
        assert asm.finish() == Interval(1, 1)
        assert asm.result().as_tuples() == [(1, 1)]

    def test_finish_without_run(self):
        asm = SequenceAssembler()
        asm.push(0, False)
        assert asm.finish() is None

    def test_on_emit_callback(self):
        emitted = []
        asm = SequenceAssembler(on_emit=emitted.append)
        for i, flag in enumerate([1, 1, 0, 1]):
            asm.push(i, bool(flag))
        asm.finish()
        assert emitted == [Interval(0, 1), Interval(3, 3)]

    def test_out_of_order_rejected(self):
        asm = SequenceAssembler()
        asm.push(0, True)
        with pytest.raises(VideoModelError):
            asm.push(2, True)

    def test_push_after_finish_rejected(self):
        asm = SequenceAssembler()
        asm.push(0, True)
        asm.finish()
        with pytest.raises(VideoModelError):
            asm.push(1, True)

    def test_double_finish_noop(self):
        asm = SequenceAssembler()
        asm.push(0, True)
        assert asm.finish() == Interval(0, 0)
        assert asm.finish() is None

    @given(st.lists(st.booleans(), max_size=60))
    def test_streaming_matches_batch(self, flags):
        asm = SequenceAssembler()
        for i, flag in enumerate(flags):
            asm.push(i, flag)
        asm.finish()
        assert asm.result() == from_indicator(flags)


def assemble(flags, first: int = 0) -> SequenceAssembler:
    asm = SequenceAssembler()
    for i, flag in enumerate(flags):
        asm.push(first + i, bool(flag))
    asm.finish()
    return asm


class TestEq4:
    """Positive clips merge into maximal runs, ``P_q = {(c_l, c_r)}``."""

    def test_basic_runs(self):
        flags = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1]
        assert assemble(flags).result().as_tuples() == [(1, 2), (4, 4), (7, 9)]

    def test_runs_carry_the_clip_ids_the_stream_started_at(self):
        assert assemble([1, 1, 0, 1], first=5).result().as_tuples() == [(5, 6), (8, 8)]

    def test_all_negative(self):
        assert assemble([0, 0, 0]).result() == IntervalSet.empty()

    def test_all_positive(self):
        assert assemble([1] * 4).result().as_tuples() == [(0, 3)]

    @given(st.lists(st.booleans(), max_size=50), st.integers(0, 5))
    def test_runs_are_the_positive_clips_in_canonical_form(self, flags, first):
        asm = assemble(flags, first)
        merged = asm.result()
        assert set(merged.points()) == {first + i for i, flag in enumerate(flags) if flag}
        assert merged.as_tuples() == [iv.as_tuple() for iv in asm.closed]
        assert merged == IntervalSet(merged.as_tuples())


def flips(flags, first: int, open_run: bool) -> list[int]:
    """The clip ids at which ``flags`` changes, starting from ``open_run``."""
    out, state = [], open_run
    for i, flag in enumerate(flags):
        if flag != state:
            out.append(first + i)
            state = flag
    return out


class TestExtend:
    @given(st.lists(st.lists(st.booleans(), max_size=12), max_size=6))
    def test_bulk_chunks_match_clip_by_clip_pushes(self, chunks):
        emitted: list[Interval] = []
        bulk, first = SequenceAssembler(on_emit=emitted.append), 0
        for chunk in chunks:
            before = len(emitted)
            got = bulk.extend(first, len(chunk), flips(chunk, first, bulk.run_open))
            assert got == len(emitted) - before
            first += len(chunk)
        bulk.finish()
        flat = [flag for chunk in chunks for flag in chunk]
        assert bulk.result() == assemble(flat).result()
        assert emitted == bulk.closed

    def test_next_clip_and_run_open_follow_the_stream(self):
        asm = SequenceAssembler()
        assert asm.next_clip is None and not asm.run_open
        asm.extend(0, 4, [1])
        assert asm.next_clip == 4 and asm.run_open
        asm.extend(4, 2, [5])
        assert asm.next_clip == 6 and not asm.run_open
        assert asm.closed == [Interval(1, 4)]

    def test_a_gap_is_refused(self):
        asm = SequenceAssembler()
        asm.extend(0, 3, [])
        with pytest.raises(VideoModelError, match="in order"):
            asm.extend(4, 1, [])

    def test_extend_after_finish_is_refused(self):
        asm = SequenceAssembler()
        asm.extend(0, 2, [0])
        assert asm.finish() == Interval(0, 1)
        with pytest.raises(VideoModelError):
            asm.extend(2, 1, [])


class TestCheckpoint:
    @given(st.lists(st.booleans(), max_size=40), st.integers(0, 40))
    def test_a_restored_assembler_finishes_as_the_uninterrupted_one(self, flags, cut):
        cut = min(cut, len(flags))
        head = SequenceAssembler()
        for i, flag in enumerate(flags[:cut]):
            head.push(i, flag)
        restored = SequenceAssembler.from_state_dict(head.state_dict())
        for i, flag in enumerate(flags[cut:], start=cut):
            restored.push(i, flag)
        restored.finish()
        assert restored.result() == assemble(flags).result()

    def test_restored_sequences_are_not_emitted_again(self):
        head = SequenceAssembler()
        for i, flag in enumerate([1, 0, 1, 1]):
            head.push(i, bool(flag))
        emitted = []
        restored = SequenceAssembler.from_state_dict(head.state_dict(), on_emit=emitted.append)
        restored.push(4, False)
        assert emitted == [Interval(2, 3)]
        assert restored.closed == [Interval(0, 0), Interval(2, 3)]
