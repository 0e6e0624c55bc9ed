"""The cached/vectorised hot path is bit-identical to the serial reference.

``OnlineConfig.cache_detections=False`` preserves the pre-cache execution
path — one ``score_clip`` model call per evaluated predicate — as the
equivalence baseline.  These property tests run randomised streams through
both backends and require *everything* observable to match: sequences,
per-clip evaluations, per-stage model-unit accounting and the cost meter.
Only the cache-hit counters (zero on the reference) and wall-clock stage
times may differ.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.config import OnlineConfig
from repro.core.engine import OnlineEngine
from repro.core.query import CompoundQuery, Query
from repro.core.scheduler import FleetRun, MultiQueryScheduler, QuerySpec
from repro.core.session import StreamSession
from repro.detectors.zoo import default_zoo
from repro.video.model import VideoGeometry
from repro.video.stream import ClipStream
from repro.video.synthesis import SceneSpec, TrackSpec, synthesize_video

GEOMETRIES = {
    "paper": VideoGeometry(),  # 10 frames/shot, 5 shots/clip
    "narrow": VideoGeometry(frames_per_shot=4, shots_per_clip=3),
    "wide": VideoGeometry(frames_per_shot=8, shots_per_clip=10),
}


def random_video(seed: int, geometry: VideoGeometry):
    """A randomised scene: one action plus 1–3 objects with random
    occupancies and correlations."""
    rng = random.Random(seed)
    tracks = [
        TrackSpec(
            label="acting", kind="action",
            occupancy=rng.uniform(0.05, 0.4),
            mean_duration_s=rng.uniform(5.0, 30.0),
        )
    ]
    for i in range(rng.randint(1, 3)):
        correlated = rng.random() < 0.5
        tracks.append(
            TrackSpec(
                label=f"obj{i}", kind="object",
                occupancy=rng.uniform(0.02, 0.5),
                mean_duration_s=rng.uniform(2.0, 15.0),
                correlate_with="acting" if correlated else None,
                correlation=rng.uniform(0.5, 0.95) if correlated else 0.0,
            )
        )
    spec = SceneSpec(
        video_id=f"rand{seed}",
        duration_s=rng.uniform(60.0, 240.0),
        tracks=tuple(tracks),
        geometry=geometry,
    )
    video = synthesize_video(spec, seed=seed)
    objects = [t.label for t in tracks if t.kind == "object"]
    return video, Query(objects=objects, action="acting")


def run_session(build, video, *, short_circuit: bool):
    """Drive one freshly-built session over the full stream on a fresh
    zoo; returns (result, zoo)."""
    zoo = default_zoo(seed=3)
    session = build(zoo)
    for clip in ClipStream(video.meta):
        session.process(clip, short_circuit=short_circuit)
    return session.finish(), zoo


def assert_equivalent(cached, cached_zoo, serial, serial_zoo):
    """Everything but wall time and the hit counters must match; a single
    cold-cache session shares nothing, so hits must be zero too."""
    assert cached.sequences == serial.sequences
    assert cached.evaluations == serial.evaluations
    assert dict(cached.final_rates) == pytest.approx(
        dict(serial.final_rates)
    )
    cached_stats = cached.stats.as_dict()
    serial_stats = serial.stats.as_dict()
    cached_stats.pop("stage_wall_s")
    serial_stats.pop("stage_wall_s")
    assert cached_stats == serial_stats  # includes zero cache hits
    for model in (serial_zoo.detector.name, serial_zoo.recognizer.name):
        assert cached_zoo.cost_meter.units(model) == (
            serial_zoo.cost_meter.units(model)
        )
        assert cached_zoo.cost_meter.ms(model) == pytest.approx(
            serial_zoo.cost_meter.ms(model)
        )
    assert cached_zoo.cost_meter.cached_units() == 0


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("seed", [11, 23, 37])
@pytest.mark.parametrize("short_circuit", [True, False])
class TestConjunctiveEquivalence:
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_svaq_svaqd_identical_to_serial(
        self, seed, geometry, short_circuit, dynamic
    ):
        video, query = random_video(seed, GEOMETRIES[geometry])
        probe_every = [0, 1, 3, 8][seed % 4]
        configs = {
            backend: OnlineConfig(
                cache_detections=backend == "cached",
                probe_every=probe_every,
            )
            for backend in ("cached", "serial")
        }
        runs = {
            backend: run_session(
                lambda zoo, c=config: StreamSession.for_query(
                    zoo, query, video, c, dynamic=dynamic
                ),
                video,
                short_circuit=short_circuit,
            )
            for backend, config in configs.items()
        }
        assert_equivalent(*runs["cached"], *runs["serial"])


@pytest.mark.parametrize("seed", [5, 19])
@pytest.mark.parametrize("short_circuit", [True, False])
class TestCompoundEquivalence:
    def test_cnf_identical_to_serial(self, seed, short_circuit):
        video, query = random_video(seed, GEOMETRIES["paper"])
        compound = CompoundQuery.disjunction([
            Query(objects=[obj], action="acting") for obj in query.objects
        ])
        runs = {}
        for backend in ("cached", "serial"):
            config = OnlineConfig(cache_detections=backend == "cached")
            runs[backend] = run_session(
                lambda zoo, c=config: StreamSession.for_query(
                    zoo, compound, video, c, dynamic=True
                ),
                video,
                short_circuit=short_circuit,
            )
        assert_equivalent(*runs["cached"], *runs["serial"])


@pytest.mark.parametrize("seed", [13, 29, 43])
class TestSharedCacheEquivalence:
    """N sessions sharing one cache reproduce N solo serial runs exactly,
    and the shared meter splits the serial charge into fresh + cached."""

    def test_lockstep_fleet_matches_serial_runs(self, seed):
        video, query = random_video(seed, GEOMETRIES["paper"])
        queries = [
            Query(objects=query.objects[:1], action="acting"),
            query,
            Query(objects=query.objects, action="acting"),
        ]

        serial_zoo = default_zoo(seed=3)
        serial_config = OnlineConfig(cache_detections=False)
        references = []
        for q in queries:
            session = StreamSession.for_query(
                serial_zoo, q, video, serial_config, dynamic=True
            )
            for clip in ClipStream(video.meta):
                session.process(clip)
            references.append(session.finish())

        shared_zoo = default_zoo(seed=3)
        run = OnlineEngine(shared_zoo).run_queries(queries, video)

        total_logical = {"object": 0, "action": 0}
        for i, reference in enumerate(references):
            result = run[f"q{i}"]
            assert result.sequences == reference.sequences
            assert result.evaluations == reference.evaluations
            stats = result.stats
            total_logical["object"] += stats.detector_invocations
            total_logical["action"] += stats.recognizer_invocations
            # Logical invocation counts are cache-independent.
            assert stats.detector_invocations == (
                reference.stats.detector_invocations
            )
            assert stats.recognizer_invocations == (
                reference.stats.recognizer_invocations
            )
        for model in (serial_zoo.detector.name, serial_zoo.recognizer.name):
            assert serial_zoo.cost_meter.units(model) == (
                shared_zoo.cost_meter.units(model)
                + shared_zoo.cost_meter.cached_units(model)
            )


@pytest.mark.parametrize("seed", [13, 29, 43])
class TestSharedRateEquivalence:
    """SVAQD fleets with duplicate queries share one rate series per
    (query shape, registration position) group; everything observable must
    still match both the sharing-off fleet and solo serial runs exactly —
    the bucket-skip counter is the only stat the topology may move (it
    lives on the rate book under sharing)."""

    def _fleet_queries(self, query):
        dup = Query(objects=query.objects[:1], action="acting")
        return [dup, query, dup, Query(objects=query.objects, action="acting"), dup]

    def _run_fleet(self, queries, video, *, share: bool):
        config = OnlineConfig(share_rate_estimates=share)
        zoo = default_zoo(seed=3)
        run = OnlineEngine(zoo, config).run_queries(queries, video)
        return run, zoo

    def _assert_runs_identical(
        self, shared_run, unshared_run, n, *, evaluations: bool = True
    ):
        # Resumed fleets do not replay pre-checkpoint per-clip
        # evaluations (those were delivered before the interrupt), so
        # checkpoint tests compare sequences/rates/stats only.
        for i in range(n):
            result, reference = shared_run[f"q{i}"], unshared_run[f"q{i}"]
            assert result.sequences == reference.sequences
            if evaluations:
                assert result.evaluations == reference.evaluations
            assert dict(result.final_rates) == dict(reference.final_rates)
            result_stats = result.stats.as_dict()
            reference_stats = reference.stats.as_dict()
            for stats in (result_stats, reference_stats):
                stats.pop("stage_wall_s")
                stats.pop("refresh_skipped")
            assert result_stats == reference_stats

    @pytest.mark.parametrize("vector", [False])  # the scalar leg's id, kept
    def test_sharing_fleet_matches_unshared_fleet(self, seed, vector):
        """The shared book's flush is the scalar row walk."""
        video, query = random_video(seed, GEOMETRIES["paper"])
        queries = self._fleet_queries(query)
        shared_run, shared_zoo = self._run_fleet(queries, video, share=True)
        unshared_run, unshared_zoo = self._run_fleet(
            queries, video, share=False
        )
        self._assert_runs_identical(shared_run, unshared_run, len(queries))
        for model in (shared_zoo.detector.name, shared_zoo.recognizer.name):
            assert shared_zoo.cost_meter.units(model) == (
                unshared_zoo.cost_meter.units(model)
            )

    def test_sharing_fleet_matches_solo_serial_runs(self, seed):
        video, query = random_video(seed, GEOMETRIES["paper"])
        queries = self._fleet_queries(query)
        run, _ = self._run_fleet(queries, video, share=True)
        serial_config = OnlineConfig(cache_detections=False)
        for i, q in enumerate(queries):
            session = StreamSession.for_query(
                default_zoo(seed=3), q, video, serial_config, dynamic=True
            )
            for clip in ClipStream(video.meta):
                session.process(clip)
            reference = session.finish()
            result = run[f"q{i}"]
            assert result.sequences == reference.sequences
            assert result.evaluations == reference.evaluations
            assert dict(result.final_rates) == dict(reference.final_rates)

    def test_owner_cancel_promotes_without_divergence(self, seed):
        """Cancelling the group owner detaches it onto a private series
        (its final update must not leak) and promotes the next member;
        every result still matches its solo reference exactly."""
        video, query = random_video(seed, GEOMETRIES["paper"])
        dup = Query(objects=query.objects[:1], action="acting")
        specs = [QuerySpec(n, dup, algorithm="svaqd") for n in ("a", "b", "c")]
        half = max(1, video.meta.n_clips // 2)

        fleet = MultiQueryScheduler(default_zoo(seed=3), specs).start(video)
        clips = ClipStream(video.meta)
        for _ in range(half):
            fleet.advance([clips.next()])
        cancelled = fleet.cancel("a")
        while not clips.end():
            fleet.advance([clips.next()])
        run = fleet.finish()

        serial_config = OnlineConfig(cache_detections=False)

        def solo(n_clips):
            session = StreamSession.for_query(
                default_zoo(seed=3), dup, video, serial_config, dynamic=True
            )
            stream = ClipStream(video.meta)
            for _ in range(n_clips):
                session.process(stream.next())
            return session.finish()

        partial = solo(half)
        assert cancelled.sequences == partial.sequences
        assert dict(cancelled.final_rates) == dict(partial.final_rates)
        full = solo(video.meta.n_clips)
        for name in ("b", "c"):
            assert run[name].sequences == full.sequences
            assert run[name].evaluations == full.evaluations
            assert dict(run[name].final_rates) == dict(full.final_rates)

    def test_checkpoint_restores_rate_groups(self, seed):
        """A fleet checkpoint records who shared with whom; the resumed
        fleet regroups identically and finishes bit-identical to the
        uninterrupted sharing run."""
        video, query = random_video(seed, GEOMETRIES["paper"])
        queries = self._fleet_queries(query)
        reference_run, _ = self._run_fleet(queries, video, share=True)

        fleet = MultiQueryScheduler(default_zoo(seed=3), queries).start(video)
        clips = ClipStream(video.meta)
        half = max(1, video.meta.n_clips // 2)
        for _ in range(half):
            fleet.advance([clips.next()])
        state = json.loads(json.dumps(fleet.state_dict()))
        assert state["version"] == 3
        # Grouping must partition members exactly by query shape (all five
        # register at position 0, so shape alone decides who shares; for
        # single-object seeds every query collapses into one group).
        expected: dict[tuple, list[str]] = {}
        for index, fleet_query in enumerate(queries):
            shape = (tuple(fleet_query.objects), fleet_query.action)
            expected.setdefault(shape, []).append(f"q{index}")
        assert sorted(state["rate_book"]["groups"]) == sorted(expected.values())

        resumed = FleetRun(default_zoo(seed=3), video)
        resumed.load_state_dict(state)
        for clip in ClipStream(video.meta, start_clip=half):
            resumed.advance([clip])
        self._assert_runs_identical(
            resumed.finish(), reference_run, len(queries),
            evaluations=False,
        )

    def test_bundle_without_a_rate_book_loads_with_sharing_disabled(self, seed):
        """A bundle with no grouping table (what an unshared fleet writes)
        restores every session on a private series — a perf-only
        downgrade with identical results."""
        video, query = random_video(seed, GEOMETRIES["paper"])
        queries = self._fleet_queries(query)
        reference_run, _ = self._run_fleet(queries, video, share=True)

        fleet = MultiQueryScheduler(default_zoo(seed=3), queries).start(video)
        clips = ClipStream(video.meta)
        half = max(1, video.meta.n_clips // 2)
        for _ in range(half):
            fleet.advance([clips.next()])
        state = json.loads(json.dumps(fleet.state_dict()))
        state["rate_book"] = None

        resumed = FleetRun(default_zoo(seed=3), video)
        resumed.load_state_dict(state)
        assert resumed.rate_book_stats() is None
        for clip in ClipStream(video.meta, start_clip=half):
            resumed.advance([clip])
        self._assert_runs_identical(
            resumed.finish(), reference_run, len(queries),
            evaluations=False,
        )


@pytest.mark.parametrize("seed", [13, 29, 43])
class TestFleetMigrationEquivalence:
    """A fleet interrupted mid-stream and resumed in a fresh scheduler —
    new process, new zoo objects — finishes with sequences, per-query
    stats and model-unit accounting identical to the uninterrupted run.

    One deliberate nuance: svaq sessions evaluate (and the cache charges)
    whole chunks at a time, so a checkpoint taken *inside* a chunk has
    already paid fresh units for the chunk's tail.  The resumed process
    re-evaluates that tail through the restored charge state and meters
    it as cache hits — the same no-double-charging contract as
    ``test_restored_cache_does_not_recharge_fresh_units``.  At a chunk
    boundary nothing is prepaid and *everything* matches bit-for-bit;
    mid-chunk, only the fresh↔cached attribution may shift while logical
    counters and total fresh units stay exact.
    """

    CHUNK = 4

    def _specs(self, query):
        return [
            QuerySpec(
                "static",
                Query(objects=query.objects[:1], action="acting"),
                algorithm="svaq",
            ),
            QuerySpec("dynamic", query, algorithm="svaqd"),
        ]

    def _run_split(self, video, specs, config, interrupt_at):
        """Advance to ``interrupt_at``, checkpoint through JSON, resume in
        a fresh empty fleet on a fresh zoo; returns (run, zoo_a, zoo_b)."""
        zoo_a = default_zoo(seed=3)
        fleet = MultiQueryScheduler(zoo_a, specs, config).start(video)
        clips = ClipStream(video.meta)
        for _ in range(interrupt_at):
            fleet.advance([clips.next()])
        state = json.loads(json.dumps(fleet.state_dict()))

        zoo_b = default_zoo(seed=3)
        resumed = FleetRun(zoo_b, video, config)
        resumed.load_state_dict(state)
        assert resumed.position == interrupt_at
        assert resumed.live == ("static", "dynamic")
        for clip in ClipStream(video.meta, start_clip=interrupt_at):
            resumed.advance([clip])
        return resumed.finish(), zoo_a, zoo_b

    def test_boundary_snapshot_is_bit_identical(self, seed):
        video, query = random_video(seed, GEOMETRIES["paper"])
        if video.meta.n_clips <= self.CHUNK:
            pytest.skip("video too short for a chunk-boundary interrupt")
        specs = self._specs(query)
        config = OnlineConfig(cache_chunk_clips=self.CHUNK)
        interrupt_at = max(
            self.CHUNK, video.meta.n_clips // 2 // self.CHUNK * self.CHUNK
        )

        reference_zoo = default_zoo(seed=3)
        reference = OnlineEngine(reference_zoo, config).run_queries(
            specs, video
        )
        run, zoo_a, zoo_b = self._run_split(
            video, specs, config, interrupt_at
        )

        for name in ("static", "dynamic"):
            assert run[name].sequences == reference[name].sequences
            resumed_stats = run[name].stats.as_dict()
            reference_stats = reference[name].stats.as_dict()
            resumed_stats.pop("stage_wall_s")
            reference_stats.pop("stage_wall_s")
            assert resumed_stats == reference_stats
        for model in (
            reference_zoo.detector.name,
            reference_zoo.recognizer.name,
        ):
            assert (
                zoo_a.cost_meter.units(model) + zoo_b.cost_meter.units(model)
            ) == reference_zoo.cost_meter.units(model)
            assert (
                zoo_a.cost_meter.cached_units(model)
                + zoo_b.cost_meter.cached_units(model)
            ) == reference_zoo.cost_meter.cached_units(model)

    def test_mid_chunk_snapshot_conserves_fresh_units(self, seed):
        video, query = random_video(seed, GEOMETRIES["paper"])
        specs = self._specs(query)
        config = OnlineConfig(cache_chunk_clips=self.CHUNK)
        interrupt_at = max(1, video.meta.n_clips // 2)
        if interrupt_at % self.CHUNK == 0:
            interrupt_at -= 1  # force a mid-chunk cut

        reference_zoo = default_zoo(seed=3)
        reference = OnlineEngine(reference_zoo, config).run_queries(specs, video)
        run, zoo_a, zoo_b = self._run_split(
            video, specs, config, interrupt_at
        )

        for name in ("static", "dynamic"):
            assert run[name].sequences == reference[name].sequences
            resumed_stats = run[name].stats.as_dict()
            reference_stats = reference[name].stats.as_dict()
            # Fresh↔cached attribution may shift for the prepaid chunk
            # tail; every logical counter must still match.
            for field in (
                "stage_wall_s", "detector_cache_hits",
                "recognizer_cache_hits", "cache_hit_rate",
            ):
                resumed_stats.pop(field)
                reference_stats.pop(field)
            assert resumed_stats == reference_stats
        # No clip's model work is ever charged fresh twice.
        for model in (
            reference_zoo.detector.name,
            reference_zoo.recognizer.name,
        ):
            assert (
                zoo_a.cost_meter.units(model) + zoo_b.cost_meter.units(model)
            ) == reference_zoo.cost_meter.units(model)


@pytest.mark.parametrize("order", ["user", "cost"])
@pytest.mark.parametrize("short_circuit", [True, False])
@pytest.mark.parametrize("seed", [11, 23])
class TestAdaptiveOrderEquivalence:
    """Adaptive conjunct ordering composes with the chunked fast path.

    Under every ``predicate_order`` × algorithm × ``short_circuit``
    combination, the chunked cached path must stay bit-identical to the
    serial per-clip reference — sequences, evaluations, execution stats
    *and* the cost meter — and a mid-stream checkpoint must carry the
    optimizer's selectivity/order state so the resumed run reorders on
    the exact same clips."""

    def _config(self, order: str, cached: bool) -> OnlineConfig:
        # Small chunks force several reorder epochs per stream; both
        # backends share the size so their epoch grids coincide.
        return OnlineConfig(
            cache_detections=cached,
            cache_chunk_clips=8,
            probe_every=3,
            predicate_order=order,
        )

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_chunked_identical_to_serial(
        self, seed, order, short_circuit, dynamic
    ):
        video, query = random_video(seed, GEOMETRIES["paper"])
        runs = {}
        sessions = {}
        for backend in ("cached", "serial"):
            zoo = default_zoo(seed=3)
            session = StreamSession.for_query(
                zoo, query, video, self._config(order, backend == "cached"),
                dynamic=dynamic,
            )
            sessions[backend] = session
            for clip in ClipStream(video.meta):
                session.process(clip, short_circuit=short_circuit)
            runs[backend] = (session.finish(), zoo)
        # Adaptive ordering must not disarm the static fast path.
        if not dynamic:
            assert sessions["cached"].chunkable
        assert not sessions["serial"].chunkable
        cached, serial = runs["cached"][0], runs["serial"][0]
        assert_equivalent(*runs["cached"], *runs["serial"])
        assert dict(cached.selectivity) == dict(serial.selectivity)

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_checkpoint_resume_carries_optimizer_state(
        self, seed, order, short_circuit, dynamic
    ):
        video, query = random_video(seed, GEOMETRIES["paper"])
        config = self._config(order, True)

        def reference():
            zoo = default_zoo(seed=3)
            session = StreamSession.for_query(
                zoo, query, video, config, dynamic=dynamic
            )
            for clip in ClipStream(video.meta):
                session.process(clip, short_circuit=short_circuit)
            return session.finish()

        ref = reference()
        # Snapshot mid-chunk AND mid-epoch (clip 11 of 8-clip chunks), the
        # worst case for order-refresh cadence on resume.
        zoo = default_zoo(seed=3)
        first = StreamSession.for_query(
            zoo, query, video, config, dynamic=dynamic
        )
        stream = ClipStream(video.meta)
        for _ in range(11):
            first.process(stream.next(), short_circuit=short_circuit)
        prefix_reorders = first.context.conjunct_reorders
        state = json.loads(json.dumps(first.state_dict()))
        resumed = StreamSession.for_query(
            default_zoo(seed=3), query, video, config, dynamic=dynamic
        )
        resumed.load_state_dict(state)
        while not stream.end():
            resumed.process(stream.next(), short_circuit=short_circuit)
        result = resumed.finish()
        assert result.sequences == ref.sequences
        # Optimizer state rode the checkpoint: the resumed stream's probe
        # statistics end identical to the uninterrupted run's.
        assert dict(result.selectivity) == dict(ref.selectivity)
        # The resumed context counts the tail's reorders; prefix + tail
        # must equal the uninterrupted count (no reorder lost or doubled).
        assert (
            prefix_reorders + result.stats.conjunct_reorders
            == ref.stats.conjunct_reorders
        )
        # Tail evaluations are bit-identical (prefix evaluations are not
        # part of the session checkpoint contract).
        n_tail = len(result.evaluations)
        assert result.evaluations == ref.evaluations[-n_tail:]
