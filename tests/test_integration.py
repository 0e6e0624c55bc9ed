"""Cross-module integration: the full online and offline pipelines, the
SQL front end, and persistence — exercised together on one scene."""

from __future__ import annotations

import pytest

from repro import (
    OfflineEngine,
    OnlineEngine,
    Query,
    VideoRepository,
    match_sequences,
    parse,
    plan,
)
from repro.detectors.zoo import default_zoo
from repro.video.datasets import DISTRACTOR_OBJECTS, build_movie, movie_by_title
from tests.conftest import make_kitchen_video
from tests.reference.intervals import set_iou


class TestOnlinePipeline:
    def test_stream_query_end_to_end(self, zoo):
        video = make_kitchen_video(seed=101, video_id="integration")
        query = Query(objects=["faucet", "person"], action="washing dishes")
        truth = video.truth.query_clips(
            ["faucet", "person"], "washing dishes", video.meta.geometry
        )
        engine = OnlineEngine(zoo=zoo)
        result = engine.run(query, video, algorithm="svaqd")
        report = match_sequences(result.sequences, truth)
        assert report.f1 >= 0.6

    def test_sql_to_stream(self, zoo):
        video = make_kitchen_video(seed=102, video_id="sqlvid")
        statement = parse(
            "SELECT MERGE(clipID) AS Sequence "
            "FROM (PROCESS sqlvid PRODUCE clipID, obj USING ObjectDetector, "
            "act USING ActionRecognizer) "
            "WHERE act='washing dishes' AND obj.include('faucet')"
        )
        result = plan(statement).execute_online(OnlineEngine(zoo=zoo), video)
        direct = OnlineEngine(zoo=zoo).run(
            Query(objects=["faucet"], action="washing dishes"), video
        )
        assert result.sequences == direct.sequences


class TestOfflinePipeline:
    @pytest.fixture(scope="class")
    def movie_engine(self):
        spec = movie_by_title("Coffee and Cigarettes")
        video = build_movie(spec, seed=7, scale=0.08)
        engine = OfflineEngine(zoo=default_zoo(seed=7))
        engine.ingest(
            video,
            object_labels=[*spec.objects, "person", *DISTRACTOR_OBJECTS],
            action_labels=[spec.action],
        )
        return engine

    def test_rvaq_equals_traverse_set(self, movie_engine):
        query = Query(objects=["wine glass", "cup"], action="smoking")
        rvaq = movie_engine.top_k(query, k=4, algorithm="rvaq")
        traverse = movie_engine.top_k(query, k=4, algorithm="pq-traverse")
        assert {r.interval for r in rvaq.ranked} == {
            r.interval for r in traverse.ranked
        }

    def test_sql_to_topk(self, movie_engine):
        statement = parse(
            "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "
            "FROM (PROCESS repo PRODUCE clipID, obj USING ObjectTracker, "
            "act USING ActionRecognizer) "
            "WHERE act='smoking' AND obj.include('wine glass', 'cup') "
            "ORDER BY RANK(act, obj) LIMIT 3"
        )
        result = plan(statement).execute_offline(movie_engine)
        assert 0 < len(result.ranked) <= 3

    def test_persistence_roundtrip_preserves_answers(self, movie_engine, tmp_path):
        query = Query(objects=["wine glass", "cup"], action="smoking")
        before = movie_engine.top_k(query, k=3, algorithm="pq-traverse")
        movie_engine.repository.save(tmp_path)
        restored = VideoRepository.load(tmp_path)
        fresh = OfflineEngine(zoo=movie_engine.zoo, repository=restored)
        after = fresh.top_k(query, k=3, algorithm="pq-traverse")
        assert [r.interval for r in before.ranked] == [
            r.interval for r in after.ranked
        ]
        for a, b in zip(before.ranked, after.ranked):
            assert a.score == pytest.approx(b.score)

    def test_online_offline_consistency(self, movie_engine):
        """RVAQ's P_q derives from SVAQD per-label runs, so the offline
        result sequences must overlap what the online engine finds."""
        spec = movie_by_title("Coffee and Cigarettes")
        query = Query(objects=["wine glass", "cup"], action="smoking")
        video = movie_engine.video(spec.video_id)
        online = OnlineEngine(zoo=movie_engine.zoo).run(query, video)
        offline_pq = movie_engine.top_k(
            query, k=1, algorithm="pq-traverse"
        ).p_q
        if online.sequences and offline_pq:
            assert set_iou(offline_pq, online.sequences) > 0.3
