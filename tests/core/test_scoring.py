"""The §4.1 scoring-function contract, property-tested for both schemes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import MaxScoring, PaperScoring, ScoringScheme
from repro.errors import ConfigurationError

SCHEMES = [PaperScoring(), MaxScoring()]

scores = st.floats(0.0, 100.0)
score_lists = st.lists(scores, min_size=0, max_size=12)


@pytest.mark.parametrize("scheme", SCHEMES, ids=["paper", "max"])
class TestContract:
    @given(clips=st.lists(scores, min_size=1, max_size=10), bump=st.floats(0.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_f_monotone_in_clip_scores(self, scheme: ScoringScheme, clips, bump):
        base = scheme.aggregate(clips)
        raised = list(clips)
        raised[0] += bump
        assert scheme.aggregate(raised) + 1e-9 >= base

    @given(clips=st.lists(scores, min_size=2, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_subsequence_dominance(self, scheme: ScoringScheme, clips):
        whole = scheme.aggregate(clips)
        for cut in range(1, len(clips)):
            assert whole + 1e-9 >= scheme.aggregate(clips[:cut])

    @given(clips=st.lists(scores, min_size=1, max_size=10), split=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_split_composition(self, scheme: ScoringScheme, clips, split):
        split = min(split, len(clips))
        left = scheme.aggregate(clips[:split])
        right = scheme.aggregate(clips[split:])
        assert scheme.combine(left, right) == pytest.approx(
            scheme.aggregate(clips), rel=1e-9, abs=1e-9
        )

    @given(score=scores, times=st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_repeat_matches_aggregate(self, scheme: ScoringScheme, score, times):
        assert scheme.repeat(score, times) == pytest.approx(
            scheme.aggregate([score] * times), rel=1e-9, abs=1e-9
        )

    @given(score=scores)
    @settings(max_examples=20, deadline=None)
    def test_identity_neutral(self, scheme: ScoringScheme, score):
        assert scheme.combine(scheme.identity, score) == pytest.approx(score)

    @given(action=scores, objects=st.lists(scores, min_size=1, max_size=5),
           bump=st.floats(0.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_g_monotone(self, scheme: ScoringScheme, action, objects, bump):
        base = scheme.clip_score(action, objects)
        assert scheme.clip_score(action + bump, objects) + 1e-9 >= base
        raised = list(objects)
        raised[0] += bump
        assert scheme.clip_score(action, raised) + 1e-9 >= base

    def test_repeat_negative_rejected(self, scheme: ScoringScheme):
        with pytest.raises(ConfigurationError):
            scheme.repeat(1.0, -1)


class ScalarHooksOnly(PaperScoring):
    """Additive ``h`` with the base class's scalar-delegating block hooks."""

    object_clip_scores = ScoringScheme.object_clip_scores
    action_clip_scores = ScoringScheme.action_clip_scores


@pytest.mark.parametrize(
    "scheme", [*SCHEMES, ScalarHooksOnly()], ids=["paper", "max", "default"]
)
class TestClipScoreColumns:
    """The per-video ``h`` hooks equal the scalar ``h`` per clip, bit for bit."""

    @given(
        observations=st.lists(
            st.tuples(st.integers(0, 7), st.floats(0.0, 1.0)), max_size=60
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_object_columns(self, scheme: ScoringScheme, observations):
        observations.sort(key=lambda pair: pair[0])  # stable: keeps frame order
        clips = np.array([c for c, _ in observations], dtype=np.int64)
        values = np.array([s for _, s in observations], dtype=np.float64)
        got = scheme.object_clip_scores(clips, values, 8)
        want = [
            scheme.object_clip_score(s for c, s in observations if c == clip)
            for clip in range(8)
        ]
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()

    @given(rows=st.lists(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5), max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_action_columns(self, scheme: ScoringScheme, rows):
        matrix = np.array(rows, dtype=np.float64).reshape(len(rows), 5)
        got = scheme.action_clip_scores(matrix)
        want = [scheme.action_clip_score(row) for row in rows]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


class TestPaperScoringSpecifics:
    def test_h_additive(self):
        scheme = PaperScoring()
        assert scheme.object_clip_score([0.5, 0.25]) == 0.75
        assert scheme.action_clip_score([0.1, 0.2, 0.3]) == pytest.approx(0.6)

    def test_h_adds_left_to_right_on_every_python(self):
        """Plain IEEE addition in order: each 1e-16 is under half an ulp of
        1.0 and is lost.  A compensated ``sum`` (CPython >= 3.12) would
        carry them and return 1.0000000000000002."""
        scheme = PaperScoring()
        tiny_tail = [1.0, 1e-16, 1e-16]
        assert scheme.object_clip_score(tiny_tail) == 1.0
        assert scheme.action_clip_score(tiny_tail) == 1.0
        assert scheme.clip_score(1.0, tiny_tail) == 1.0

    def test_g_formula(self):
        scheme = PaperScoring()
        assert scheme.clip_score(2.0, [1.0, 3.0]) == 8.0

    def test_action_only_query(self):
        assert PaperScoring().clip_score(2.5, []) == 2.5

    def test_negative_scores_rejected(self):
        with pytest.raises(ConfigurationError):
            PaperScoring().clip_score(-1.0, [1.0])


class TestMaxScoringSpecifics:
    def test_h_max(self):
        scheme = MaxScoring()
        assert scheme.object_clip_score([0.5, 0.25]) == 0.5
        assert scheme.object_clip_score([]) == 0.0

    def test_sequence_scores_best_clip(self):
        scheme = MaxScoring()
        assert scheme.aggregate([1.0, 5.0, 2.0]) == 5.0
