"""Engine facades: online + offline end-to-end behaviour."""

from __future__ import annotations

import pytest

from repro.core.baselines import fagin_baseline, pq_traverse
from repro.core.config import OnlineConfig
from repro.core.engine import OfflineEngine, OnlineEngine
from repro.core.query import CompoundQuery, Query
from repro.core.distributed import sharded_top_k
from repro.core.rvaq import RVAQ
from repro.core.scheduler import FleetRun, QuerySpec
from repro.detectors.zoo import default_zoo
from repro.errors import ConfigurationError, QueryError, StorageError
from repro.eval.metrics import match_sequences
from repro.sql import parse, plan
from repro.storage.sharded import ShardedRepository
from repro.storage.synth import SYNTH_ACTION, SYNTH_OBJECT, synthetic_repository
from repro.video.stream import ClipStream
from tests.conftest import make_kitchen_video

QUERY = Query(objects=["faucet"], action="washing dishes")
CNF = CompoundQuery.disjunction(
    [Query(objects=["faucet"], action="washing dishes"), Query(objects=["person"])]
)


class TestOnlineEngine:
    def test_run_both_algorithms(self, zoo, kitchen_video):
        engine = OnlineEngine(zoo=zoo)
        for algorithm in ("svaq", "svaqd"):
            result = engine.run(QUERY, kitchen_video, algorithm=algorithm)
            assert result.video_id == kitchen_video.video_id

    def test_unknown_algorithm(self, zoo, kitchen_video):
        engine = OnlineEngine(zoo=zoo)
        with pytest.raises(ConfigurationError):
            engine.run(QUERY, kitchen_video, algorithm="magic")

    def test_run_many(self, zoo):
        videos = [
            make_kitchen_video(seed=s, video_id=f"m{s}") for s in (71, 72)
        ]
        engine = OnlineEngine(zoo=zoo)
        results = engine.run_many(QUERY, videos)
        assert set(results) == {"m71", "m72"}

    def test_run_many_parallel_matches_serial(self, zoo):
        videos = [
            make_kitchen_video(seed=s, video_id=f"p{s}") for s in (81, 82, 83)
        ]
        engine = OnlineEngine(zoo=zoo)
        serial = engine.run_many(QUERY, videos, executor="serial")
        threaded = engine.run_many(
            QUERY, videos, executor="thread", max_workers=3
        )
        assert list(threaded) == list(serial)  # insertion order preserved
        for video_id, result in serial.items():
            assert threaded[video_id].sequences == result.sequences
            assert threaded[video_id].final_rates == pytest.approx(
                result.final_rates
            )

    def test_run_many_parallel_shared_context_totals(self, zoo):
        from repro.core.context import ExecutionContext

        videos = [
            make_kitchen_video(seed=s, video_id=f"c{s}") for s in (84, 85)
        ]
        engine = OnlineEngine(zoo=zoo)
        serial_ctx, thread_ctx = ExecutionContext(), ExecutionContext()
        engine.run_many(QUERY, videos, context=serial_ctx)
        engine.run_many(
            QUERY, videos, executor="thread", context=thread_ctx
        )
        assert thread_ctx.clips_processed == serial_ctx.clips_processed
        assert (
            thread_ctx.snapshot().model_invocations
            == serial_ctx.snapshot().model_invocations
        )

    def test_a_shared_context_leaves_each_result_its_own_stats(self, zoo):
        """A shared context used to be the session's own, so a result's
        stats counted every earlier run on it: the second of two videos
        read the clips of both serially but its own under threads."""
        from repro.core.context import ExecutionContext

        videos = [
            make_kitchen_video(seed=86, duration_s=120.0, video_id="short"),
            make_kitchen_video(seed=87, duration_s=240.0, video_id="long"),
        ]
        engine = OnlineEngine(zoo=zoo)
        own = [v.meta.n_clips for v in videos]
        for executor in ("serial", "thread"):
            shared = ExecutionContext()
            results = engine.run_many(
                QUERY, videos, executor=executor, context=shared
            )
            assert [r.stats.clips_processed for r in results.values()] == own
            assert shared.clips_processed == sum(own)
        shared = ExecutionContext()
        for video in videos:
            result = engine.run(CNF, video, "svaq", context=shared)
            assert result.stats.clips_processed == video.meta.n_clips
        assert shared.clips_processed == sum(own)

    @pytest.mark.parametrize(
        "door, queries", [("run_many", QUERY), ("run_queries_many", [QUERY])]
    )
    def test_two_videos_sharing_an_id_are_refused(self, zoo, door, queries):
        """The second result used to replace the first without a word."""
        videos = [
            make_kitchen_video(seed=s, duration_s=60.0, video_id="twin")
            for s in (88, 89)
        ]
        with pytest.raises(
            ConfigurationError, match=r"duplicate video ids: \['twin'\]"
        ):
            getattr(OnlineEngine(zoo=zoo), door)(queries, videos)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_run_many_refuses_a_worker_count_below_one(
        self, zoo, kitchen_video, executor, max_workers
    ):
        with pytest.raises(ConfigurationError, match="max_workers"):
            OnlineEngine(zoo=zoo).run_many(
                QUERY, [kitchen_video], executor=executor, max_workers=max_workers
            )

    def test_run_many_unknown_executor(self, zoo, kitchen_video):
        engine = OnlineEngine(zoo=zoo)
        with pytest.raises(ConfigurationError):
            engine.run_many(QUERY, [kitchen_video], executor="fork")

    @pytest.mark.parametrize("algorithm", ["SVAQD", "nonsense"])
    @pytest.mark.parametrize("door", ["run", "run_compound", "execute_online"])
    def test_a_cnf_query_refuses_an_unknown_algorithm(
        self, zoo, kitchen_video, door, algorithm
    ):
        """A CNF query used to run SVAQ under any name but ``"svaqd"``."""
        engine = OnlineEngine(zoo=zoo)
        compiled = plan(parse(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, "
            "obj USING ObjectDetector, act USING ActionRecognizer) "
            "WHERE act='washing dishes' OR obj.include('person')"
        ))
        assert compiled.compound is not None
        with pytest.raises(ConfigurationError, match="unknown online algorithm"):
            if door == "execute_online":
                compiled.execute_online(engine, kitchen_video, algorithm)
            else:
                getattr(engine, door)(CNF, kitchen_video, algorithm)


@pytest.mark.parametrize("algorithm", ["svaq", "svaqd"])
@pytest.mark.parametrize("query", [QUERY, CNF], ids=["conjunctive", "cnf"])
def test_a_fleet_of_one_advanced_in_one_call_is_the_solo_run(
    kitchen_video, query, algorithm
):
    """What routing a solo run through ``FleetRun`` would rest on: with
    rate sharing on (the default), a one-query fleet advanced over the
    whole stream in one call answers and counts exactly what
    ``OnlineEngine.run`` does — its rate group's owner books the
    bucket-skip counts as the solo session does."""
    config = OnlineConfig()
    solo_zoo, fleet_zoo = default_zoo(seed=3), default_zoo(seed=3)
    solo = OnlineEngine(solo_zoo, config).run(query, kitchen_video, algorithm)
    fleet = FleetRun(
        fleet_zoo, kitchen_video, config, [QuerySpec("q", query, algorithm)]
    )
    fleet.advance(ClipStream(kitchen_video.meta))
    got = fleet.finish()["q"]
    assert got.sequences == solo.sequences
    assert got.evaluations == solo.evaluations
    assert dict(got.final_rates) == dict(solo.final_rates)
    got_stats, solo_stats = got.stats.as_dict(), solo.stats.as_dict()
    got_stats.pop("stage_wall_s")
    solo_stats.pop("stage_wall_s")
    assert got_stats == solo_stats
    for meter in ("units", "cached_units", "ms"):
        assert getattr(fleet_zoo.cost_meter, meter)() == (
            getattr(solo_zoo.cost_meter, meter)()
        )


class TestOfflineEngine:
    def test_topk_algorithms_agree_on_set(self, kitchen_engine):
        results = {
            algo: kitchen_engine.top_k(QUERY, k=3, algorithm=algo)
            for algo in ("rvaq", "rvaq-noskip", "fa", "pq-traverse")
        }
        reference = {r.interval for r in results["pq-traverse"].ranked}
        for algo, result in results.items():
            assert {r.interval for r in result.ranked} == reference, algo

    def test_rvaq_answers_are_real(self, kitchen_engine, kitchen_video):
        truth = kitchen_video.truth.query_clips(
            ["faucet"], "washing dishes", kitchen_video.meta.geometry
        )
        result = kitchen_engine.top_k(QUERY, k=3)
        report = match_sequences(result.sequences, truth)
        assert report.precision >= 0.5

    def test_localized(self, kitchen_engine):
        result = kitchen_engine.top_k(QUERY, k=2)
        rows = kitchen_engine.localized(result)
        assert all(video_id == "kitchen" for video_id, *_ in rows)
        for _, start, end, score in rows:
            assert 0 <= start <= end
            assert score >= 0

    def test_video_accessor(self, kitchen_engine, kitchen_video):
        assert kitchen_engine.video("kitchen") is kitchen_video
        with pytest.raises(StorageError):
            kitchen_engine.video("ghost")

    def test_unknown_algorithm(self, kitchen_engine):
        with pytest.raises(ConfigurationError):
            kitchen_engine.top_k(QUERY, k=1, algorithm="sorcery")

    def test_remove(self, zoo):
        engine = OfflineEngine(zoo=zoo)
        video = make_kitchen_video(seed=81, video_id="tmp")
        engine.ingest(video, object_labels=["faucet"], action_labels=["washing dishes"])
        assert engine.repository.n_videos == 1
        engine.remove("tmp")
        assert engine.repository.n_videos == 0


#: The doors that take a K besides ``OfflineEngine.top_k``.
K_DOORS = {
    "sharded_top_k": lambda repo, q, k: sharded_top_k(ShardedRepository.split(repo, 2), q, k),
    "RVAQ.top_k": lambda repo, q, k: RVAQ(repo).top_k(q, k),
    "pq_traverse": lambda repo, q, k: pq_traverse(repo, q, k),
    "fagin_baseline": lambda repo, q, k: fagin_baseline(repo, q, k),
}


class TestRankedQueryRefusals:
    """A ranked query the store cannot answer is refused the same way on
    every path, not answered with an empty ranking on some."""

    ALGORITHMS = ("rvaq", "rvaq-noskip", "pq-traverse", "fa")

    @pytest.fixture(scope="class")
    def repo(self):
        return synthetic_repository(n_videos=3, n_clips=30, seed=5)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "query, label",
        [
            (Query(objects=["typo"], action=SYNTH_ACTION), "typo"),
            (Query(objects=[SYNTH_OBJECT], action="tpyo"), "tpyo"),
        ],
    )
    def test_single_repository_refuses_an_unknown_label(
        self, repo, algorithm, query, label
    ):
        engine = OfflineEngine(repository=repo)
        with pytest.raises(StorageError) as raised:
            engine.top_k(query, k=3, algorithm=algorithm)
        assert str(raised.value) == f"no ingested video carries label {label!r}"

    def test_sharded_store_refuses_an_unknown_label(self, repo):
        sharded = ShardedRepository.split(repo, 2)
        query = Query(objects=["typo"], action=SYNTH_ACTION)
        with pytest.raises(StorageError) as raised:
            sharded_top_k(sharded, query, 3)
        assert str(raised.value) == "no ingested video carries label 'typo'"

    def test_a_shard_without_the_label_stays_valid(self, repo):
        """Only the whole store has to carry it: here one video — and so one
        shard of three — was ingested without the object."""
        from dataclasses import replace

        merged = ShardedRepository.split(repo, 1).merged()
        bare = replace(
            merged.ingest_of("v1"), object_tables={}, object_sequences={}
        )
        merged.remove("v1")
        merged.add(bare)
        query = Query(objects=[SYNTH_OBJECT], action=SYNTH_ACTION)
        single = OfflineEngine(repository=merged)
        want = single.localized(single.top_k(query, k=4, algorithm="pq-traverse"))
        assert want and all(video_id != "v1" for video_id, *_ in want)
        sharded = ShardedRepository.split(merged, 3)
        assert any(
            SYNTH_OBJECT not in shard.ingest_of(vid).labels
            for shard in sharded.shards for vid in shard.video_ids
        )
        got = sharded_top_k(sharded, query, 4).rows
        assert [row[:3] for row in got] == [row[:3] for row in want]

    @pytest.mark.parametrize("path", [*ALGORITHMS, *K_DOORS])
    @pytest.mark.parametrize(
        "k", [0, -1, True, 2.5, "3"], ids=["0", "-1", "True", "2.5", "'3'"]
    )
    def test_k_must_be_positive_on_every_path(self, repo, path, k):
        """One check, one error type: ``2.5`` used to escape as NumPy's
        ``TypeError``, ``True`` ran as K = 1, and the sharded engine
        refused with a ``ConfigurationError``."""
        query = Query(objects=[SYNTH_OBJECT], action=SYNTH_ACTION)
        with pytest.raises(QueryError) as raised:
            if path in K_DOORS:
                K_DOORS[path](repo, query, k)
            else:
                OfflineEngine(repository=repo).top_k(query, k=k, algorithm=path)
        assert str(raised.value) == f"k must be positive; got {k!r}"

    def test_k_zero_is_not_the_default_k(self, repo):
        query = Query(objects=[SYNTH_OBJECT], action=SYNTH_ACTION)
        with pytest.raises(QueryError, match="k must be positive; got 0"):
            sharded_top_k(ShardedRepository.split(repo, 2), query, 0)
        engine = OfflineEngine(repository=repo)
        assert len(engine.top_k(query).ranked) == engine.config.default_k
