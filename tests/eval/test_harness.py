"""Experiment-harness helpers."""

from __future__ import annotations

import pytest

from repro.core.query import Query
from repro.errors import ConfigurationError
from paper.harness import (
    aggregate_f1,
    aggregate_frame_f1,
    aggregate_report,
    compare_algorithms,
    ground_truth_clips,
    run_query_over_videos,
)
from tests.conftest import make_kitchen_video

QUERY = Query(objects=["faucet"], action="washing dishes")
VIDEOS = [make_kitchen_video(seed=s, video_id=f"h{s}") for s in (91, 92)]


class TestFactories:
    def test_an_unknown_algorithm_is_refused(self, zoo):
        with pytest.raises(ConfigurationError, match="unknown online algorithm"):
            run_query_over_videos("nope", zoo, QUERY, VIDEOS)

    def test_ground_truth_clips(self):
        clips = ground_truth_clips(VIDEOS[0], QUERY)
        assert clips == VIDEOS[0].truth.query_clips(
            ["faucet"], "washing dishes", VIDEOS[0].meta.geometry
        )


class TestRuns:
    def test_run_query_over_videos(self, zoo):
        runs = run_query_over_videos("svaqd", zoo, QUERY, VIDEOS)
        assert [r.video_id for r in runs] == ["h91", "h92"]
        for run in runs:
            assert run.report.true_positives >= 0

    def test_aggregation(self, zoo):
        runs = run_query_over_videos("svaqd", zoo, QUERY, VIDEOS)
        total = aggregate_report(runs)
        assert total.true_positives == sum(
            r.report.true_positives for r in runs
        )
        assert 0.0 <= aggregate_f1(runs) <= 1.0
        assert 0.0 <= aggregate_frame_f1(runs) <= 1.0

    def test_compare_algorithms(self, zoo):
        reports = compare_algorithms(zoo, QUERY, VIDEOS)
        assert set(reports) == {"svaq", "svaqd"}
        for report in reports.values():
            assert 0.0 <= report.f1 <= 1.0
