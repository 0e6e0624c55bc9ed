"""``OnlineResult.evaluations`` — the lazy, read-only evaluation sequence."""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import OnlineConfig
from repro.core.indicators import ClipEvaluation, EvaluationLog
from repro.core.query import Query
from repro.core.results import OnlineResult
from repro.core.session import StreamSession
from repro.detectors.zoo import default_zoo
from repro.errors import QueryError
from repro.utils.intervals import IntervalSet
from repro.video.stream import ClipStream
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=23, duration_s=120.0, video_id="logvid")
QUERY = Query(objects=["person", "faucet"], action="washing dishes")


def run(*, cached: bool, dynamic: bool = False):
    config = OnlineConfig(cache_detections=cached, cache_chunk_clips=16)
    session = StreamSession.for_query(
        default_zoo(seed=3), QUERY, VIDEO, config, dynamic=dynamic
    )
    session.advance(ClipStream(VIDEO.meta))
    return session.finish()


@pytest.fixture(scope="module")
def lazy():
    """Column-backed: a static session over the detection cache."""
    return run(cached=True)


@pytest.fixture(scope="module")
def eager():
    """The same run clip by clip — a tuple of eagerly built rows."""
    return tuple(run(cached=False).evaluations)


class TestSequenceProtocol:
    def test_length_iteration_and_indexing(self, lazy, eager):
        log = lazy.evaluations
        assert isinstance(log, EvaluationLog)
        assert len(log) == len(eager) == VIDEO.meta.n_clips
        assert list(log) == list(eager)
        # Indices on both sides of the 16-clip block boundaries.
        for index in (0, 1, 15, 16, 17, len(eager) - 1):
            assert log[index] == eager[index]
            assert isinstance(log[index], ClipEvaluation)
            assert log[index].clip_id == index

    def test_negative_and_slice_indices(self, lazy, eager):
        log = lazy.evaluations
        assert log[-1] == eager[-1]
        assert log[-len(eager)] == eager[0]
        assert log[10:20] == eager[10:20]
        assert log[-5:] == eager[-5:]
        assert log[::7] == eager[::7]
        assert isinstance(log[3:5], tuple)

    def test_out_of_range_index_raises(self, lazy):
        with pytest.raises(IndexError):
            lazy.evaluations[len(lazy.evaluations)]
        with pytest.raises(IndexError):
            lazy.evaluations[-len(lazy.evaluations) - 1]

    def test_rows_carry_skipped_labels(self, lazy):
        negative = next(ev for ev in lazy.evaluations if not ev.positive)
        assert [o.label for o in negative.outcomes] == list(
            (*QUERY.objects, QUERY.action)
        )
        assert any(not o.evaluated for o in negative.outcomes)

    def test_no_row_cache_is_kept(self, lazy):
        """Stated policy: a column-backed row is rebuilt on every read —
        equal, but never the same object; nothing accumulates."""
        log = lazy.evaluations
        assert log[5] == log[5]
        assert log[5] is not log[5]
        assert [a is b for a, b in zip(log, log)] == [False] * len(log)


class TestEquality:
    def test_equal_to_a_tuple_both_ways(self, lazy, eager):
        assert lazy.evaluations == eager
        assert eager == lazy.evaluations
        assert not (lazy.evaluations != eager)

    def test_equal_to_another_log(self, lazy):
        assert lazy.evaluations == run(cached=True).evaluations
        assert lazy.evaluations == EvaluationLog(lazy.evaluations)

    def test_a_single_differing_outcome_breaks_equality(self, lazy, eager):
        row = eager[7]
        outcome = row.outcomes[0]._replace(count=row.outcomes[0].count + 1)
        changed = row._replace(outcomes=(outcome, *row.outcomes[1:]))
        other = (*eager[:7], changed, *eager[8:])
        assert lazy.evaluations != other
        assert other != lazy.evaluations

    def test_length_mismatch_and_foreign_types(self, lazy, eager):
        assert lazy.evaluations != eager[:-1]
        assert lazy.evaluations != list(eager)  # like tuple != list
        assert lazy.evaluations != "evaluations"


class TestResultViews:
    def test_counts_read_the_columns(self, lazy, eager):
        reference = OnlineResult(
            query=QUERY, video_id=VIDEO.video_id,
            sequences=IntervalSet.empty(), evaluations=eager,
        )
        assert isinstance(reference.evaluations, EvaluationLog)
        assert len(lazy.evaluations) == len(reference.evaluations)
        assert lazy.positive_clips == reference.positive_clips
        for label in (*QUERY.objects, QUERY.action):
            assert lazy.predicate_indicator_rate(label) == pytest.approx(
                reference.predicate_indicator_rate(label)
            )
        with pytest.raises(QueryError):
            lazy.predicate_indicator_rate("unicorn")

    def test_per_clip_path_returns_the_same_type(self):
        dynamic = run(cached=True, dynamic=True)
        assert isinstance(dynamic.evaluations, EvaluationLog)
        assert dynamic.evaluations == tuple(dynamic.evaluations)

    def test_result_pickles(self, lazy, eager):
        """A result survives a pickle round trip: a caller may store or
        send one."""
        clone = pickle.loads(pickle.dumps(lazy))
        assert clone.evaluations == eager
        assert clone.sequences == lazy.sequences
        assert clone.positive_clips == lazy.positive_clips
