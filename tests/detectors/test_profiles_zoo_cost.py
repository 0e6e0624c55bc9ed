"""Profiles, zoo assembly, and inference-cost accounting."""

from __future__ import annotations

import copy
import pickle
import sys
import threading
from collections import defaultdict

import pytest

from repro.detectors.cost import _TABLES, CostMeter
from repro.detectors.profiles import (
    ALL_PROFILES,
    I3D,
    IDEAL_OBJECT,
    MASK_RCNN,
    YOLOV3,
    DetectorProfile,
    LabelAccuracy,
)
from repro.detectors.zoo import build_zoo, default_zoo, ideal_zoo, yolo_zoo
from repro.errors import ConfigurationError


class TestProfiles:
    def test_ordering_maskrcnn_vs_yolo(self):
        assert MASK_RCNN.default.fpr < YOLOV3.default.fpr
        assert MASK_RCNN.default.effective_interior_tpr > (
            YOLOV3.default.effective_interior_tpr
        )

    def test_person_override(self):
        person = MASK_RCNN.accuracy_for("person")
        assert person.fpr < MASK_RCNN.default.fpr
        assert person.effective_interior_tpr > (
            MASK_RCNN.default.effective_interior_tpr
        )
        assert MASK_RCNN.accuracy_for("faucet") == MASK_RCNN.default

    def test_interior_defaults_to_tpr(self):
        acc = LabelAccuracy(tpr=0.7, fpr=0.1)
        assert acc.effective_interior_tpr == 0.7

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LabelAccuracy(tpr=1.5, fpr=0.1)
        with pytest.raises(ConfigurationError):
            LabelAccuracy(tpr=0.5, fpr=0.1, burst_on=0.0)
        with pytest.raises(ConfigurationError):
            DetectorProfile(name="x", kind="banana", default=MASK_RCNN.default)

    def test_all_profiles_well_formed(self):
        kinds = {p.kind for p in ALL_PROFILES}
        assert kinds == {"object", "action", "tracker"}


class TestZoo:
    def test_default_lineup(self):
        zoo = default_zoo()
        assert zoo.detector.name == "MaskRCNN"
        assert zoo.recognizer.name == "I3D"
        assert zoo.tracker.name == "CenterTrack"

    def test_variants(self):
        assert yolo_zoo().detector.name == "YOLOv3"
        assert ideal_zoo().detector.name == "IdealObject"

    def test_shared_cost_meter(self):
        zoo = default_zoo()
        assert zoo.detector._cost is zoo.cost_meter
        assert zoo.recognizer._cost is zoo.cost_meter

    def test_wrong_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            build_zoo(object_profile=I3D)
        with pytest.raises(ConfigurationError):
            build_zoo(action_profile=IDEAL_OBJECT)


class TestCostMeter:
    def test_accumulates(self):
        meter = CostMeter()
        meter.record("m", 10, 2.0)
        meter.record("m", 5, 2.0)
        meter.record("other", 1, 100.0)
        assert meter.ms("m") == 30.0
        assert meter.units("m") == 15
        assert meter.ms() == 130.0
        assert meter.units() == 16
        assert meter.__getstate__()["ms"] == {"m": 30.0, "other": 100.0}

    def test_reset(self):
        meter = CostMeter()
        meter.record("m", 1, 1.0)
        meter.reset()
        assert meter.ms() == 0.0

    def test_negative_units_rejected(self):
        with pytest.raises(ValueError):
            CostMeter().record("m", -1, 1.0)

    def test_unknown_model_zero(self):
        assert CostMeter().ms("ghost") == 0.0

    def test_cached_units_tracked_separately(self):
        meter = CostMeter()
        meter.record("m", 10, 2.0)
        meter.record_cached("m", 4)
        assert meter.units("m") == 10
        assert meter.cached_units("m") == 4
        assert meter.ms("m") == 20.0  # cache hits charge no latency
        assert meter.cached_units() == 4
        with pytest.raises(ValueError):
            meter.record_cached("m", -1)
        meter.reset()
        assert meter.cached_units() == 0

    def test_merge_and_pickle_carry_cached_units(self):
        import pickle

        a, b = CostMeter(), CostMeter()
        a.record_cached("m", 2)
        b.record_cached("m", 3)
        a.merge(b)
        assert a.cached_units("m") == 5
        restored = pickle.loads(pickle.dumps(a))
        assert restored.cached_units("m") == 5

    def test_a_pickle_missing_a_table_fails_loudly(self):
        """A pickle only ever comes from this build: a state without one of
        the tables is an error, not a meter that silently restarts it."""
        meter = CostMeter()
        meter.record("m", 1, 1.0)
        state = meter.__getstate__()
        assert set(state) == set(_TABLES)
        for table in _TABLES:
            partial = {name: state[name] for name in state if name != table}
            with pytest.raises(KeyError, match=table):
                CostMeter.__new__(CostMeter).__setstate__(partial)


# -- the tables are listed once --------------------------------------------------
#
# Parametrised over the meter's own table list, so a sixth table is covered
# the day it is declared (it needs a reader of the same name).


@pytest.mark.parametrize("table", _TABLES)
def test_every_table_survives_merge_reset_pickle_copy_and_fork(table):
    amount = _TABLES[table](list(_TABLES).index(table) + 2)
    meter = CostMeter()

    def add(which):
        which._tables[table]["m"] += amount

    def read(which, model="m"):
        return getattr(which, table)(model)

    add(meter)

    assert read(meter) == read(meter, None) == amount
    assert read(meter, "ghost") == 0
    assert [getattr(meter, other)() for other in _TABLES if other != table] == [
        0
    ] * (len(_TABLES) - 1)

    for clone in (pickle.loads(pickle.dumps(meter)), copy.deepcopy(meter)):
        assert clone == meter and read(clone) == amount
        add(clone)  # its own tables, not views of the original's
        assert read(clone) == 2 * amount and read(meter) == amount

    merged = copy.deepcopy(meter)
    merged.merge(meter)
    merged.merge(CostMeter())
    assert read(merged) == 2 * amount

    zoo = build_zoo(cost_meter=meter)
    fork = zoo.fork()
    assert read(fork.cost_meter, None) == 0  # a fork starts zeroed ...
    add(fork.cost_meter)
    assert read(zoo.cost_meter) == amount  # ... and charges privately
    zoo.cost_meter.merge(fork.cost_meter)
    assert read(meter) == 2 * amount

    meter.reset()
    assert read(meter) == read(meter, None) == 0


def test_every_table_is_read_and_written_under_the_lock():
    """The stress test below cannot see a missing lock on an interpreter
    that never switches threads inside ``table[model] += n``; this can
    (the lock is reentrant: it must be held by the thread touching the
    table)."""
    meter = CostMeter()

    class Guarded(defaultdict):
        def __setitem__(self, key, value):
            assert meter._lock._is_owned()
            super().__setitem__(key, value)

        def get(self, key, default=None):
            assert meter._lock._is_owned()
            return super().get(key, default)

        def values(self):
            assert meter._lock._is_owned()
            return super().values()

        def clear(self):
            assert meter._lock._is_owned()
            super().clear()

    meter._tables = {name: Guarded(zero) for name, zero in _TABLES.items()}
    other = CostMeter()
    for target in (meter, other):
        target.record("m", 2, 0.5)
        target.record_cached("m", 3)
        target.record_retry("m")
        target.record_giveup("m")
    meter.merge(other)
    assert meter.observed_ms_per_unit("m", 9.0) == 0.5
    assert other.observed_ms_per_unit("unseen", 9.0) == 9.0
    for table in _TABLES:
        assert getattr(meter, table)("m") == 2 * getattr(other, table)("m")
        assert getattr(meter, table)() == 2 * getattr(other, table)()
    meter.reset()
    assert meter.units() == 0 and not meter._lock._is_owned()


def test_threads_sharing_one_meter_lose_no_charge():
    """Library users may share a meter across their own threads: every
    table is behind the lock, so no read-modify-write is lost."""
    meter, rounds, workers = CostMeter(), 2000, 4

    def charge():
        for _ in range(rounds):
            meter.record("m", 2, 0.5)
            meter.record_cached("m", 3)
            meter.record_retry("m")
            meter.record_giveup("m", 2)

    threads = [threading.Thread(target=charge) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = rounds * workers
    assert (
        meter.ms("m"), meter.units("m"), meter.cached_units("m"),
        meter.retries("m"), meter.giveups("m"),
    ) == (total * 1.0, total * 2, total * 3, total, total * 2)
