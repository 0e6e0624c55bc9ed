"""Algorithm 1 — SVAQ."""

from __future__ import annotations

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.core.svaq import SVAQ
from repro.eval.metrics import match_sequences
from repro.video.stream import ClipStream
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=31, duration_s=300.0, video_id="svaqvid")
QUERY = Query(objects=["faucet"], action="washing dishes")


def truth():
    return VIDEO.truth.query_clips(["faucet"], "washing dishes", VIDEO.meta.geometry)


class TestWithIdealModels:
    def test_recovers_ground_truth(self, perfect_zoo):
        # Ideal detectors remove all noise; the residual gap to 1.0 is the
        # boundary mismatch between the annotation projection (>=50% clip
        # coverage of the predicate intersection) and the clip indicators
        # (per-predicate quotas) — see EXPERIMENTS.md.
        result = SVAQ(perfect_zoo, QUERY, OnlineConfig()).run(VIDEO)
        report = match_sequences(result.sequences, truth())
        assert report.f1 >= 0.85
        assert report.recall == 1.0

    def test_multi_object_query(self, perfect_zoo):
        query = Query(objects=["faucet", "person"], action="washing dishes")
        result = SVAQ(perfect_zoo, query, OnlineConfig()).run(VIDEO)
        gt = VIDEO.truth.query_clips(
            ["faucet", "person"], "washing dishes", VIDEO.meta.geometry
        )
        assert match_sequences(result.sequences, gt).f1 >= 0.85


class TestWithNoisyModels:
    def test_reasonable_f1_at_good_p0(self, zoo):
        config = OnlineConfig().with_p0(1e-2)
        result = SVAQ(zoo, QUERY, config).run(VIDEO)
        assert match_sequences(result.sequences, truth()).f1 >= 0.6

    def test_extreme_p0_degrades(self, zoo):
        # Aggregate over several videos: a single clean video can survive a
        # bad p0 by luck, but across a set the Figure 2 shape must show.
        videos = [
            make_kitchen_video(seed=s, duration_s=300.0, video_id=f"x{s}")
            for s in (61, 62, 63)
        ]

        def aggregate(p0: float) -> float:
            from repro.eval.metrics import MatchReport

            total = MatchReport(0, 0, 0)
            for video in videos:
                gt = video.truth.query_clips(
                    ["faucet"], "washing dishes", video.meta.geometry
                )
                result = SVAQ(zoo, QUERY, OnlineConfig().with_p0(p0)).run(video)
                total = total + match_sequences(result.sequences, gt)
            return total.f1

        assert aggregate(1e-6) < aggregate(1e-2)

    def test_deterministic(self, zoo):
        a = SVAQ(zoo, QUERY, OnlineConfig()).run(VIDEO)
        b = SVAQ(zoo, QUERY, OnlineConfig()).run(VIDEO)
        assert a.sequences == b.sequences


class TestMechanics:
    def test_initial_critical_values(self, zoo):
        algo = SVAQ(zoo, QUERY, OnlineConfig().with_p0(1e-4))
        values = algo.initial_critical_values(VIDEO.meta.geometry)
        assert set(values) == {"faucet", "washing dishes"}
        assert all(v >= 1 for v in values.values())

    def test_k_crit_overrides(self, zoo):
        algo = SVAQ(
            zoo, QUERY, OnlineConfig(),
            k_crit_overrides={"faucet": 49, "washing dishes": 5},
        )
        values = algo.initial_critical_values(VIDEO.meta.geometry)
        assert values["faucet"] == 49
        assert values["washing dishes"] == 5

    def test_k_crit_override_zero_is_honored(self, zoo):
        # Regression: an explicit 0 used to fall through to the Eq. 5
        # default because the override lookup treated 0 as missing.
        algo = SVAQ(
            zoo, QUERY, OnlineConfig(), k_crit_overrides={"faucet": 0}
        )
        values = algo.initial_critical_values(VIDEO.meta.geometry)
        assert values["faucet"] == 0
        assert values["washing dishes"] >= 1

    def test_the_burstiness_prior_binds_svaq_as_it_binds_svaqd(self, zoo):
        """``markov_burstiness`` used to reach SVAQD's table only: SVAQ
        kept the i.i.d. quotas (``faucet: 8``) whatever it was set to."""
        from dataclasses import replace

        from repro.core.dynamics import QuotaManager

        geometry = VIDEO.meta.geometry
        plain = OnlineConfig().with_p0(0.02)
        bursty = replace(plain, markov_burstiness=6.0)
        iid = SVAQ(zoo, QUERY, plain).initial_critical_values(geometry)
        assert iid == {"faucet": 8, "washing dishes": 4}
        assert iid == SVAQ(
            zoo, QUERY, replace(plain, markov_burstiness=1.0)
        ).initial_critical_values(geometry)
        values = SVAQ(zoo, QUERY, bursty).initial_critical_values(geometry)
        assert values == {"faucet": 30, "washing dishes": 5}
        assert values == QuotaManager(
            ["faucet"], ["washing dishes"], geometry, bursty
        ).quotas()
        pinned = SVAQ(zoo, QUERY, bursty, k_crit_overrides={"faucet": 9})
        assert pinned.initial_critical_values(geometry) == {
            "faucet": 9, "washing dishes": 5,
        }

    def test_bounded_stream(self, zoo):
        stream = ClipStream(VIDEO.meta, start_clip=0, stop_clip=20)
        result = SVAQ(zoo, QUERY, OnlineConfig()).run(VIDEO, stream=stream)
        assert result.n_clips == 20
        bound = result.sequences.bounding()
        assert bound is None or bound.end < 20

    def test_result_bookkeeping(self, zoo):
        result = SVAQ(zoo, QUERY, OnlineConfig()).run(VIDEO)
        assert result.n_clips == VIDEO.meta.n_clips
        assert result.video_id == "svaqvid"
        assert 0 <= result.positive_clips <= result.n_clips
        rate = result.predicate_indicator_rate("faucet")
        assert 0.0 <= rate <= 1.0

    def test_sequences_match_positive_clips(self, zoo):
        result = SVAQ(zoo, QUERY, OnlineConfig()).run(VIDEO)
        positives = {
            ev.clip_id for ev in result.evaluations if ev.positive
        }
        assert set(result.sequences.points()) == positives
