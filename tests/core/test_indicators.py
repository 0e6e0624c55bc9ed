"""Algorithm 2: per-clip predicate evaluation with short-circuiting."""

from __future__ import annotations

import pytest

from repro.core.config import OnlineConfig
from repro.core.indicators import ClipEvaluator
from repro.core.query import Query
from repro.errors import QueryError
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=21, duration_s=300.0, video_id="indvid")
QUERY = Query(objects=["faucet", "person"], action="washing dishes")


@pytest.fixture(scope="module")
def evaluator(zoo):
    return ClipEvaluator(zoo, VIDEO.meta, VIDEO.truth, QUERY, OnlineConfig())


def loose() -> dict[str, int]:
    return {"faucet": 1, "person": 1, "washing dishes": 1}


def impossible() -> dict[str, int]:
    return {"faucet": 10**6, "person": 1, "washing dishes": 1}


class TestCounting:
    def test_counts_within_clip_bounds(self, evaluator):
        count, units = evaluator.count("object", "faucet", 0)
        assert units == VIDEO.meta.geometry.frames_per_clip
        assert 0 <= count <= units
        count, units = evaluator.count("action", "washing dishes", 0)
        assert units == VIDEO.meta.geometry.shots_per_clip
        assert 0 <= count <= units

    def test_counts_reflect_ground_truth(self, evaluator):
        clips = VIDEO.truth.query_clips(
            ["faucet"], "washing dishes", VIDEO.meta.geometry
        )
        assert clips, "test scene must contain a positive clip"
        inside = clips[0].start
        count, units = evaluator.count("object", "faucet", inside)
        assert count > units // 2


class TestEvaluate:
    def test_positive_clip(self, evaluator):
        clips = VIDEO.truth.query_clips(
            ["faucet", "person"], "washing dishes", VIDEO.meta.geometry
        )
        evaluation = evaluator.evaluate(clips[0].start + 1, loose())
        assert evaluation.positive
        assert all(o.evaluated for o in evaluation.outcomes)

    def test_short_circuit_skips_rest(self, evaluator):
        evaluation = evaluator.evaluate(0, impossible())
        assert not evaluation.positive
        faucet = evaluation.outcome("faucet")
        assert faucet.evaluated and not faucet.indicator
        # predicates after the failed first one were never evaluated
        assert not evaluation.outcome("person").evaluated
        assert not evaluation.outcome("washing dishes").evaluated

    def test_no_short_circuit_evaluates_all(self, evaluator):
        evaluation = evaluator.evaluate(0, impossible(), short_circuit=False)
        assert all(o.evaluated for o in evaluation.outcomes)
        assert not evaluation.positive

    def test_custom_order(self, evaluator):
        order = ["washing dishes", "person", "faucet"]
        evaluation = evaluator.evaluate(0, loose(), order=order)
        assert [o.label for o in evaluation.outcomes] == order

    def test_order_must_cover_query(self, evaluator):
        with pytest.raises(QueryError):
            evaluator.evaluate(0, loose(), order=["faucet"])

    def test_outcome_lookup_unknown(self, evaluator):
        evaluation = evaluator.evaluate(0, loose())
        with pytest.raises(QueryError):
            evaluation.outcome("zebra")

    def test_default_order_objects_then_actions(self, evaluator):
        evaluation = evaluator.evaluate(0, loose(), short_circuit=False)
        labels = [o.label for o in evaluation.outcomes]
        assert labels == ["faucet", "person", "washing dishes"]

    def test_indicator_thresholding(self, evaluator):
        # The clip indicator is exactly count >= quota.
        evaluation = evaluator.evaluate(3, loose(), short_circuit=False)
        for outcome in evaluation.outcomes:
            assert outcome.indicator == (outcome.count >= loose()[outcome.label])
