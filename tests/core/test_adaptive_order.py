"""Regression tests for the adaptive-ordering bugfix sweep.

Three hot-path bugs rode along with the cost-based conjunct optimizer:

* mid-chunk buffer invalidation double-charged the cost meter — the
  not-yet-consumed chunk suffix was charged at materialisation time and
  charged *again* when the buffer was rebuilt (a ``short_circuit`` flip
  mid-chunk triggers exactly this);
* ``StreamSession.selectivity_estimates`` returned ``float("nan")`` for
  labels no probe had observed yet, which is invalid strict JSON and
  broke every payload it rode in (``--stats-json``, service health);
* the adaptive-order override rebuilt its rates dict and re-sorted on
  every clip — now cached by a revision counter, with the exact same
  order sequence.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.config import OnlineConfig
from repro.core.optimizer import MIN_PROBES
from repro.core.query import Query
from repro.core.session import StreamSession
from repro.detectors.zoo import default_zoo
from repro.service import QueryService
from repro.video.stream import ClipStream
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=61, duration_s=300.0, video_id="adaptive")
QUERY = Query(objects=["person", "faucet"], action="washing dishes")


def run_with_flips(cached: bool, flips, *, order: str = "user"):
    """Drive the full stream, flipping ``short_circuit`` off inside the
    clip windows in ``flips`` (chosen mid-chunk, so the cached path must
    invalidate and re-materialise its buffer mid-flight)."""
    zoo = default_zoo(seed=3)
    config = replace(
        OnlineConfig(), cache_detections=cached, cache_chunk_clips=8,
        predicate_order=order, probe_every=3,
    )
    session = StreamSession.for_query(
        zoo, QUERY, VIDEO, config, dynamic=False
    )
    stream = ClipStream(VIDEO.meta)
    index = 0
    while not stream.end():
        sc = not any(lo <= index < hi for lo, hi in flips)
        session.process(stream.next(), short_circuit=sc)
        index += 1
    return session.finish(), zoo.cost_meter


class TestMidChunkDoubleCharge:
    """Flipping ``short_circuit`` mid-chunk invalidates the buffer; the
    already-charged unconsumed suffix must be refunded before the chunk
    is re-materialised, keeping the meter identical to the per-clip
    reference path."""

    # Windows are deliberately mid-chunk for 8-clip chunks, and cover
    # both flip directions (True→False re-materialises with a *wider*
    # evaluation set, False→True with a narrower one).
    FLIPS = ((10, 13), (30, 31))

    @pytest.mark.parametrize("order", ["user", "cost"])
    def test_meter_parity_with_serial_reference(self, order):
        serial, serial_meter = run_with_flips(False, self.FLIPS, order=order)
        chunked, chunked_meter = run_with_flips(True, self.FLIPS, order=order)
        assert chunked.sequences == serial.sequences
        assert chunked.evaluations == serial.evaluations
        for model in (
            default_zoo(seed=3).detector.name,
            default_zoo(seed=3).recognizer.name,
        ):
            # The double-charge bug inflated fresh units on the chunked
            # side by one evaluated suffix per invalidation.
            assert chunked_meter.units(model) == serial_meter.units(model)
            assert chunked_meter.ms(model) == pytest.approx(
                serial_meter.ms(model)
            )
        assert chunked_meter.cached_units() == serial_meter.cached_units()

    def test_flip_without_reconcile_would_double_charge(self):
        """The refund is real: materialising a chunk, discarding it
        mid-way and re-materialising charges exactly once after
        reconciliation."""
        zoo = default_zoo(seed=3)
        config = replace(
            OnlineConfig(), cache_chunk_clips=8, cache_detections=True
        )
        session = StreamSession.for_query(
            zoo, QUERY, VIDEO, config, dynamic=False
        )
        stream = ClipStream(VIDEO.meta)
        for _ in range(2):  # consume 2 clips of the first 8-clip chunk
            session.process(stream.next())
        charged_before = zoo.cost_meter.units()
        # Flip short_circuit for clip 2: the 6-clip suffix is refunded,
        # then the rebuilt chunk re-charges it under the new mode.
        session.process(stream.next(), short_circuit=False)
        # Without the refund this would exceed the serial charge for
        # clips 0..2 evaluated + the lookahead; with it, total charged
        # units never exceed one full evaluation of the chunk.
        n_labels = 3
        chunk_units = 8 * (
            n_labels - 1
        ) * VIDEO.meta.geometry.frames_per_clip + 8 * (
            VIDEO.meta.geometry.shots_per_clip
        )
        assert charged_before <= chunk_units
        assert zoo.cost_meter.units() <= chunk_units
        assert zoo.cost_meter.cached_units() == 0


class TestSelectivityJsonSafety:
    """Unprobed labels report ``None`` — never NaN — so every stats
    payload stays valid under strict JSON."""

    def test_unprobed_labels_are_none(self):
        zoo = default_zoo(seed=3)
        config = replace(
            OnlineConfig(), predicate_order="cost", probe_every=0
        )
        session = StreamSession.for_query(
            zoo, QUERY, VIDEO, config, dynamic=False
        )
        stream = ClipStream(VIDEO.meta)
        for _ in range(5):
            session.process(stream.next())
        estimates = session.selectivity_estimates()
        # probe_every=0: nothing is ever probed.
        assert set(estimates) == {"person", "faucet", "washing dishes"}
        assert all(rate is None for rate in estimates.values())
        # The historical regression: float("nan") here made this raise.
        json.dumps(estimates, allow_nan=False)

    def test_result_selectivity_is_strict_json(self):
        zoo = default_zoo(seed=3)
        session = StreamSession.for_query(
            zoo, QUERY, VIDEO, OnlineConfig(), dynamic=True
        )
        stream = ClipStream(VIDEO.meta)
        for _ in range(4):
            session.process(stream.next())
        session.drain()
        result = session.finish()
        json.dumps(dict(result.selectivity), allow_nan=False)

    def test_service_health_payload_is_strict_json(self):
        service = QueryService(default_zoo(seed=3), clip_batch=4)
        service.add_stream("cam", VIDEO)
        name = service.register("cam", QUERY)
        service.step("cam")
        payload = service.health()
        # The whole health payload — including the new per-query
        # selectivity block — must survive strict JSON.
        encoded = json.dumps(payload, sort_keys=True, allow_nan=False)
        decoded = json.loads(encoded)
        selectivity = decoded["streams"]["cam"]["queries"][name][
            "selectivity"
        ]
        assert set(selectivity) == {"person", "faucet", "washing dishes"}


class TestOrderCacheIdentity:
    """The cached order override reproduces a recompute-per-clip
    sequence exactly: same order before every clip, reorders counted only
    on effective changes."""

    def test_cached_order_matches_naive_recomputation(self):
        zoo = default_zoo(seed=3)
        probe_every = 3
        config = replace(
            OnlineConfig(), predicate_order="cost",
            probe_every=probe_every, cache_detections=False,
        )
        session = StreamSession.for_query(
            zoo, QUERY, VIDEO, config, dynamic=True
        )
        stream = ClipStream(VIDEO.meta)
        fired: dict[str, int] = {}
        probed: dict[str, int] = {}
        labels = list(QUERY.objects) + [QUERY.action]
        geometry = VIDEO.meta.geometry
        cost = {
            label: geometry.frames_per_clip * zoo.detector.profile.ms_per_unit
            for label in QUERY.objects
        }
        cost[QUERY.action] = (
            geometry.shots_per_clip * zoo.recognizer.profile.ms_per_unit
        )

        def expected_cost_to_falsify(label):
            rate = 0.0
            if probed.get(label, 0) >= MIN_PROBES:
                rate = fired[label] / probed[label]
            return cost[label] / max(1.0 - rate, 1e-9)

        index = 0
        while not stream.end():
            # The ranking rule, recomputed from scratch before every clip.
            expected = sorted(labels, key=expected_cost_to_falsify)
            assert list(session._optimizer.current_order()) == expected
            evaluation = session.process(stream.next())
            if index % probe_every == 0:
                for outcome in evaluation.outcomes:
                    if outcome.evaluated and not outcome.degraded:
                        probed[outcome.label] = (
                            probed.get(outcome.label, 0) + 1
                        )
                        fired[outcome.label] = (
                            fired.get(outcome.label, 0)
                            + int(outcome.indicator)
                        )
            index += 1
        # The scene's rates are spread out, so the order must actually
        # have converged away from the user order at least once.
        assert session.finish().stats.conjunct_reorders >= 1
