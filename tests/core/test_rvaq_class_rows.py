"""What one bound row per length class can get wrong.

``_WorkingSet`` keeps a single *shared* row for the sequences of equal
length that no clip has reached, once ``b_lo^K`` is strictly above their
lower bounds (DESIGN.md "Offline top-K pipeline").  The differential below
draws the inputs where that shortcut is under most strain — scores from
``{0, 0.5, 1}`` so ``g`` ties, ``b_lo^K`` ties and zero-score bottom clips
are the norm, a handful of lengths shared by many sequences, ``K`` on both
sides of ``|P_q|``, a finite coordinator floor — and compares everything
observable with the row-at-a-time reference: ranking, access counts,
iterations and the final ``C_skip``.  Two crafted cases pin the rare
transitions: a shared row split back because its lower bound reached
``b_lo^K``, and one retired whole by the floor.  ``TestShardedTies`` takes
the same tie-heavy inputs through ``sharded_top_k``: rows are no longer in
slot order, and a shard has to ship the lowest slots among exact ties.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.config import RankingConfig
from repro.core.distributed import sharded_top_k
from repro.core.engine import OfflineEngine
from repro.core.rvaq import RVAQ, _SHARED, _WorkingSet
from repro.core.scoring import PaperScoring
from tests.reference.scoring import MaxScoring
from repro.errors import ConfigurationError
from repro.storage.ingest import VideoIngest
from repro.storage.repository import VideoRepository
from repro.storage.sharded import ShardedRepository
from repro.storage.table import ClipScoreTable
from repro.utils.intervals import IntervalSet
from tests.core.test_rvaq_equivalence import (
    QUERY,
    FlooredReference,
    assert_bit_identical,
    run_with_floor,
)
from tests.reference import rvaq as rvaq_reference


def build_repo(videos) -> VideoRepository:
    """``videos``: per video a list of ``(gap, [(act, car), ...])`` runs —
    ``gap`` clips outside ``P_q`` (at least one after the first run, so runs
    never merge), then one sequence with those per-clip predicate scores."""
    repo = VideoRepository()
    for v, runs in enumerate(videos):
        act, car, spans = [], [], []
        for i, (gap, clips) in enumerate(runs):
            for _ in range(gap + (i > 0)):
                act.append(0.5)
                car.append(1.0)
            spans.append((len(act), len(act) + len(clips) - 1))
            for a, c in clips:
                act.append(a)
                car.append(c)
        sequences = IntervalSet(spans)
        repo.add(
            VideoIngest(
                video_id=f"v{v}",
                n_clips=len(act),
                object_tables={"car": ClipScoreTable("car", list(enumerate(car)))},
                action_tables={
                    "jumping": ClipScoreTable("jumping", list(enumerate(act)))
                },
                object_sequences={"car": sequences},
                action_sequences={"jumping": sequences},
            )
        )
    return repo


def reference_run(repo, scoring, cfg, k, floor):
    """``(result, final C_skip as a set)`` of the floored reference."""
    seen = {}

    class Spy(rvaq_reference.ReferenceTBClipIterator):
        def __init__(self, *args, skip, **kwargs):
            seen["skip"] = skip  # held by reference: grows in place
            super().__init__(*args, skip=skip, **kwargs)

    reference = FlooredReference(repo, scoring, cfg)
    reference.floor = floor
    with mock.patch.object(rvaq_reference, "ReferenceTBClipIterator", Spy):
        return reference.top_k(QUERY, k), seen.get("skip", set())


def assert_same_run(repo, scoring, cfg, k, floor=float("-inf")):
    """RVAQ under ``floor`` against the reference; returns the working set."""
    new, bounds = run_with_floor(RVAQ(repo, scoring, cfg), k, floor)
    ref, ref_skip = reference_run(repo, scoring, cfg, k, floor)
    assert_bit_identical(new, ref)
    gaps = set(range(repo.id_span)) - set(repo.all_clips().points())
    assert {cid for cid, flag in enumerate(bounds.skip) if flag} == ref_skip | gaps
    return bounds


tie_scores = st.sampled_from([0.0, 0.5, 1.0])
runs = st.tuples(
    st.integers(0, 2),
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.tuples(tie_scores, tie_scores), min_size=n, max_size=n)
    ),
)
corpora = st.lists(st.lists(runs, min_size=1, max_size=9), min_size=1, max_size=3)

# Where shared rows get split again: flat sequences whose Eq. 14 bound
# (length × s_btm) climbs past leaders that are one high clip among low ones.
flat = st.tuples(st.sampled_from([0.2, 0.3, 0.5]), st.integers(1, 4)).map(
    lambda t: [(t[0], 1.0)] * t[1]
)
spiked = st.tuples(
    st.sampled_from([0.7, 0.8, 0.9, 1.0]), st.sampled_from([0.0, 0.01, 0.1]),
    st.integers(0, 3), st.integers(0, 3),
).map(lambda t: [(t[1], 1.0)] * t[2] + [(t[0], 1.0)] + [(t[1], 1.0)] * t[3])
leaders_over_flats = st.lists(
    st.tuples(st.integers(0, 2), st.one_of(flat, flat, spiked)),
    min_size=2, max_size=20,
)


class TestDifferential:
    @given(
        videos=corpora,
        which_k=st.sampled_from(["1", "3", "n-1", "n", "n+3"]),
        exact=st.booleans(),
        scoring=st.sampled_from([PaperScoring(), MaxScoring()]),
        floor=st.sampled_from([float("-inf"), 0.0, 0.5, 1.0, 2.0, 3.5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_reference(self, videos, which_k, exact, scoring, floor):
        repo = build_repo(videos)
        n = len(RVAQ(repo).result_sequences(QUERY))
        k = max(1, {"1": 1, "3": 3, "n-1": n - 1, "n": n, "n+3": n + 3}[which_k])
        assert_same_run(
            repo, scoring, RankingConfig(require_exact_scores=exact), k, floor
        )

    @given(
        video=leaders_over_flats,
        k=st.integers(1, 6),
        exact=st.booleans(),
        scoring=st.sampled_from([PaperScoring(), MaxScoring()]),
        floor=st.sampled_from([float("-inf"), float("-inf"), 0.5, 1.5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_leaders_over_flat_classes(self, video, k, exact, scoring, floor):
        assert_same_run(
            build_repo([video]), scoring,
            RankingConfig(require_exact_scores=exact), k, floor,
        )

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12), exact=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_many_sequences_of_few_lengths(self, seed, k, exact):
        """Enough sequences for the shared rows to form on every draw."""
        rng = np.random.default_rng(seed)
        videos = [
            [
                (
                    int(rng.integers(0, 3)),
                    [
                        tuple(rng.choice([0.0, 0.5, 1.0], size=2))
                        for _ in range(int(rng.integers(1, 4)))
                    ],
                )
                for _ in range(40)
            ]
            for _ in range(2)
        ]
        bounds = assert_same_run(
            build_repo(videos), PaperScoring(),
            RankingConfig(require_exact_scores=exact), k,
        )
        assert bounds.members  # the shared rows were built


def uniform_repo(lengths, scores) -> VideoRepository:
    """One video, ``car`` always 1.0: sequence ``i`` has ``lengths[i]`` clips
    whose action scores are ``scores[i]`` (one value, or one per clip)."""
    videos = [[
        (1, [(a, 1.0) for a in (s if isinstance(s, list) else [s] * n)])
        for n, s in zip(lengths, scores)
    ]]
    return build_repo(videos)


class TestCraftedTransitions:
    def test_a_shared_row_is_split_when_its_lower_bound_reaches_the_kth(self):
        """Three sequences take one top clip each of 0.9, 0.8, 0.7 and, the
        rest of their clips being 0.01s, sit at those lower bounds; with
        K = 3 ``b_lo^K`` is 0.7 and the six untouched four-clip sequences of
        0.2s share one row.  The bottom walk then passes the 0.01s and
        reaches the 0.2s: Eq. 14 puts the shared row at 4 × 0.2 = 0.8, above
        ``b_lo^K``, so its members can be in the top set again and have to
        be told apart (ties on the lowest slot)."""
        lengths = [4, 4, 4] + [4] * 6
        scores = [[0.9, 0.01, 0.01, 0.01], [0.8, 0.01, 0.01, 0.01],
                  [0.7, 0.01, 0.01, 0.01]] + [0.2] * 6
        repo = uniform_repo(lengths, scores)
        cfg = RankingConfig(require_exact_scores=True)
        grown = []
        original = _WorkingSet.regroup

        def spy(self, reach):
            shared, before = bool(self.members), len(self.slots)
            changed = original(self, reach)
            if shared and changed:
                grown.append(len(self.slots) - before)
            return changed

        with mock.patch.object(_WorkingSet, "regroup", spy):
            bounds = assert_same_run(repo, PaperScoring(), cfg, 3)
        assert grown and max(grown) > 1  # a whole class, not one first clip
        assert (bounds.position[: bounds.n_sequences] != _SHARED).all()

    def test_a_shared_row_is_retired_whole_by_the_floor(self):
        """K = 1.  The one-clip leader's 1.0 comes back first while the
        bottom walk chews on a six-clip sequence of 0.01s, so from the first
        pair ``b_lo^K`` (1.0) is above the eight untouched two-clip
        sequences of 0.6s and they share one row.  Locally they stay in the
        race (``2 × s_top >= 1.0`` down to their own 1.2), but the
        coordinator's floor, 1.5, is between ``2 × 0.6`` and ``2 × 1.0``:
        the shared row goes the moment ``s_top`` falls to 0.6 — seven
        members in one step, all their clips into ``C_skip``, none of them
        ever given a row (the eighth took that 0.6 and went by itself)."""
        repo = uniform_repo([1, 6] + [2] * 8, [1.0, 0.01] + [0.6] * 8)
        cfg = RankingConfig(require_exact_scores=True)
        bounds = assert_same_run(repo, PaperScoring(), cfg, 1, floor=1.5)
        still_shared = np.flatnonzero(bounds.position[: bounds.n_sequences] == _SHARED)
        assert len(still_shared) == 7
        for slot in still_shared.tolist():
            clips = range(bounds.starts[slot], bounds.ends[slot] + 1)
            assert all(bounds.skip[cid] for cid in clips)
        assert bounds.n_live == 0  # the floor is above this whole shard
        unfloored = assert_same_run(repo, PaperScoring(), cfg, 1)
        assert unfloored.members[2] < 7  # without it they are walked


def assert_sharded_rows_equal_single(repo, k, n_shards, budget):
    engine = OfflineEngine(
        repository=repo, config=RankingConfig(require_exact_scores=True)
    )
    single = engine.localized(engine.top_k(QUERY, k))
    result = sharded_top_k(
        ShardedRepository.split(repo, n_shards), QUERY, k, round_budget=budget
    )
    assert list(result.rows) == single


class TestShardedTies:
    """A shard ships its K best exact candidates, ties to the lowest slot —
    whatever order their rows were appended in — or the gather cannot give
    the single engine's answer."""

    def test_a_tied_own_row_appended_later_still_wins_on_its_slot(self):
        """K = 1.  Slot 1's single 1.0 clip comes back first while the
        bottom walk is busy with the 0.01s, so slot 0 (0.6 + 0.4) starts out
        under its length's shared row and gets its own row *behind* slot
        1's.  Both end exact at 1.0 and live; the answer is slot 0."""
        repo = uniform_repo([2, 1, 6], [[0.6, 0.4], 1.0, 0.01])
        assert 0.6 + 0.4 == 1.0
        bounds = assert_same_run(
            repo, PaperScoring(), RankingConfig(require_exact_scores=True), 1
        )
        assert bounds.exact_live()[0].tolist() == [1, 0]  # row order
        assert_sharded_rows_equal_single(repo, 1, 1, 64)

    @given(
        videos=corpora,
        k=st.integers(1, 4),
        n_shards=st.integers(1, 3),
        budget=st.sampled_from([1, 3, 64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_single_engine_with_ties_at_the_cut(
        self, videos, k, n_shards, budget
    ):
        assert_sharded_rows_equal_single(build_repo(videos), k, n_shards, budget)


class TestCountsStayNonNegative:
    """The refresh runs ``_repeat_counted`` without the ``times >= 0`` scan;
    the guarantee is established where counts shrink, and the public hook
    keeps its own check."""

    @pytest.mark.parametrize("scoring", [PaperScoring(), MaxScoring()], ids=type)
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_the_public_hook_refuses_a_negative_count(self, scoring, dtype):
        times = np.array([2, 0, 1], dtype=dtype)
        assert scoring.repeat_block(0.5, times).tolist() == [
            scoring.repeat(0.5, int(t)) for t in times
        ]
        assert scoring._repeat_counted(0.5, times).tolist() == [
            scoring.repeat(0.5, int(t)) for t in times
        ]
        times[1] = -1
        with pytest.raises(ConfigurationError, match="repeat times must be >= 0"):
            scoring.repeat_block(0.5, times)

    @pytest.mark.parametrize("top", [True, False])
    def test_folding_past_a_sequences_length_is_refused(self, top):
        bounds = _WorkingSet(IntervalSet([(2, 3), (6, 6)]), 8, PaperScoring())
        bounds.fold(6, 0.5, top=top)
        with pytest.raises(ConfigurationError, match="repeat times must be >= 0"):
            bounds.fold(6, 0.5, top=top)
        assert bounds.up_missing.tolist() == [2.0, 0.0 if top else 1.0]
