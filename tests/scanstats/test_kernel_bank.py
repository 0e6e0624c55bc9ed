"""KernelRateBank ≡ the scalar reference estimator, bit for bit.

The bank is the hot path behind SVAQD's dynamic quotas; the scalar
estimator in ``tests/reference/kernel_scalar.py`` is its reference, and a
row checkpoints in the scalar's format.  These properties pin the two together exactly —
``==`` on every state field and estimate, not tolerances — across random
observe_batch / advance interleavings through ``fold_row`` (one-row
blocks, and a block's rows under random ``evaluated`` masks, count columns
and ``folds``), and through checkpoint round-trips in both directions.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext
from repro.core.engine import OnlineEngine
from repro.core.query import Query
from repro.detectors.faults import FaultProfile, faulty_zoo
from repro.detectors.zoo import default_zoo
from repro.errors import ScanStatisticsError
from repro.scanstats.critical import Quota, critical_table
from repro.scanstats.kernel import KernelRateBank
from repro.utils.validation import write_record
from tests.conftest import make_kitchen_video
from tests.reference.kernel_scalar import ScalarKernelRateEstimator

# Mixed parameters so rows exercise different decay constants, priors and
# clamps in the same bank pass.
ROW_PARAMS = [
    dict(bandwidth=250.0, initial_p=1e-4),
    dict(bandwidth=12.0, initial_p=0.01, p_floor=1e-5, p_ceil=0.9),
    dict(bandwidth=2500.0, initial_p=1e-4, prior_mass=50.0),
    dict(bandwidth=3.0, initial_p=0.3, p_floor=1e-3, p_ceil=0.5),
    dict(bandwidth=97.0, initial_p=5e-3),
    dict(bandwidth=640.0, initial_p=2e-4, prior_mass=1.0),
    dict(bandwidth=31.0, initial_p=0.05),
    dict(bandwidth=1500.0, initial_p=1e-3),
    dict(bandwidth=7.5, initial_p=0.1, p_ceil=0.99),
    dict(bandwidth=420.0, initial_p=3e-4),
    dict(bandwidth=55.0, initial_p=0.02, prior_mass=8.0),
    dict(bandwidth=1000.0, initial_p=1e-4),
]


def make_rows(n: int) -> list[ScalarKernelRateEstimator]:
    return [ScalarKernelRateEstimator(**ROW_PARAMS[i % len(ROW_PARAMS)]) for i in range(n)]


def fold_one_row(bank, units, counts, evaluated, folds):
    """One clip through ``fold_row`` as a one-row block: row ``r`` spans
    ``units[r]`` units with ``counts[r]`` positives; against empty
    buckets every row's rate comes back."""
    n = len(bank)
    plan = [(r, [counts[r]], *w) for r, w in enumerate(bank.windows(units))]
    return bank.fold_row(
        plan, 0, bytearray(evaluated), folds,
        [Quota(critical_table(50, 7500, 0.01)) for _ in range(n)],
    )


def rates(bank: KernelRateBank) -> list[float]:
    """Every row's estimate: a zero-unit row moves nothing."""
    n = len(bank)
    return [rate for _, rate in fold_one_row(bank, [0] * n, [0] * n, [0] * n, False)]


def assert_rows_identical(
    bank: KernelRateBank, scalars: list[ScalarKernelRateEstimator]
) -> None:
    assert len(bank) == len(scalars)
    assert rates(bank) == [est.rate for est in scalars]
    for i, est in enumerate(scalars):
        assert write_record(bank.state_row(i)) == est.state_dict()


# A step drives every row through one fold_row call (units/counts/fold
# per row, mirrored by the scalar observe_batch / advance).
row_step = st.tuples(
    st.integers(min_value=0, max_value=40),  # units
    st.integers(min_value=0, max_value=40),  # raw counts (clamped to units)
    st.booleans(),  # fold?
)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 4, 8, 12]),
    steps=st.lists(st.lists(row_step, min_size=1, max_size=12), max_size=8),
)
def test_apply_bit_identical_to_scalar_loop(n, steps):
    """fold_row == scalar observe_batch/advance per row, and the rates it
    returns are the scalar's, at every step of an interleaving."""
    scalars = make_rows(n)
    bank = KernelRateBank.from_estimators(make_rows(n))
    for step in steps:
        units, counts, fold = zip(*(step[i % len(step)] for i in range(n)))
        counts = [min(c, u) for c, u in zip(counts, units)]
        moved = fold_one_row(bank, units, counts, fold, True)
        expected = [
            est.observe_batch(counts[i], units[i]) if fold[i] else est.advance(units[i])
            for i, est in enumerate(scalars)
        ]
        assert moved == list(enumerate(expected))
        assert_rows_identical(bank, scalars)


#: Bucket bounds for a row's new rate: none (every rate leaves an empty
#: bucket), one it is strictly inside (rates lie in (0, 1)), and buckets
#: it sits on the edge of, which it leaves too.
BUCKETS = {
    "empty": lambda rate: (math.inf, -math.inf),
    "around": lambda rate: (0.0, 1.0),
    "on lo": lambda rate: (rate, 1.0),
    "on hi": lambda rate: (0.0, rate),
}


@st.composite
def blocks(draw):
    """A block in the row stepper's layout: per label a window and a count
    column, a flat label-major ``evaluated`` mask, per row ``folds``, and
    per label the kind of bucket its rate is tested against."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 10))
    units = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    return {
        "n": n,
        "m": m,
        "units": units,
        "counts": [
            draw(st.lists(st.integers(0, u), min_size=m, max_size=m)) for u in units
        ],
        "evaluated": draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)),
        "folds": draw(st.lists(st.booleans(), min_size=m, max_size=m)),
        "buckets": draw(st.lists(st.sampled_from(sorted(BUCKETS)), min_size=n, max_size=n)),
    }


@settings(max_examples=80, deadline=None)
@given(block=blocks(), warmup=st.lists(row_step, min_size=12, max_size=12))
def test_block_rows_bit_identical_to_scalar_loop(block, warmup):
    """Row after row of a block: a label folds its count when the row
    folds and evaluated it and advances otherwise, exactly as the scalar;
    only the rows whose rate left its bucket come back."""
    n, m = block["n"], block["m"]
    scalars = make_rows(n)
    bank = KernelRateBank.from_estimators(make_rows(n))
    # Start from a history, so advances move the rows too.
    units, counts, fold = zip(*warmup[:n])
    counts = [min(c, u) for c, u in zip(counts, units)]
    fold_one_row(bank, units, counts, fold, True)
    for i, est in enumerate(scalars):
        if fold[i]:
            est.observe_batch(counts[i], units[i])
        else:
            est.advance(units[i])
    units = block["units"]
    plan = [
        (r * m, block["counts"][r], *w) for r, w in enumerate(bank.windows(units))
    ]
    evaluated = bytearray(block["evaluated"])
    for row, folds in enumerate(block["folds"]):
        rates = [
            est.observe_batch(block["counts"][r][row], units[r])
            if folds and evaluated[r * m + row]
            else est.advance(units[r])
            for r, est in enumerate(scalars)
        ]
        lo, hi = zip(*(BUCKETS[kind](rate) for kind, rate in zip(block["buckets"], rates)))
        moved = bank.fold_row(
            plan, row, evaluated, folds,
            [Quota(critical_table(50, 7500, 0.01), 0, *bounds) for bounds in zip(lo, hi)],
        )
        assert moved == [
            (r, rate) for r, (kind, rate) in enumerate(zip(block["buckets"], rates))
            if kind != "around"
        ]
        assert_rows_identical(bank, scalars)


def test_a_degraded_held_outcome_advances_as_before():
    """The one-row form on the armed per-clip path: held replays of a
    model that gave up advance their estimators and are not folded.  The
    numbers are those of the two-call row update this method replaced."""
    video = make_kitchen_video(seed=43, duration_s=120.0, video_id="heldvid")
    config = OnlineConfig(
        cache_detections=False, retry_max_attempts=1,
        failure_policy="hold_last_estimate", update_on="all",
    )
    zoo = faulty_zoo(default_zoo(seed=2), FaultProfile(name="held", transient_rate=0.3, seed=5))
    context = ExecutionContext()
    result = OnlineEngine(zoo, config).run(
        Query(objects=["faucet", "person"], action="washing dishes"), video, "svaqd",
        context=context,
    )
    assert context.snapshot().predicates_degraded == 38
    assert len(result.degraded_clips) == 28
    assert (result.stats.quota_refreshes, result.stats.refresh_skipped) == (60, 111)
    assert {label: rate.hex() for label, rate in result.final_rates.items()} == {
        "faucet": "0x1.096640a88db92p-2",
        "person": "0x1.bdfb71c327073p-2",
        "washing dishes": "0x1.84be6fc42a538p-2",
    }
    assert result.sequences.as_tuples() == [(17, 30)]


def test_extend_absorbs_live_state():
    est = ScalarKernelRateEstimator(bandwidth=100.0, initial_p=1e-3)
    est.observe_batch(3, 50)
    est.advance(20)
    bank = KernelRateBank()
    rows = bank.extend([est])
    assert rows == range(0, 1)
    assert write_record(bank.state_row(0)) == est.state_dict()
    assert rates(bank) == [est.rate]
    more = bank.extend(make_rows(3))
    assert more == range(1, 4)
    assert len(bank) == 4
    # Growth leaves existing rows untouched.
    assert write_record(bank.state_row(0)) == est.state_dict()


def test_checkpoint_round_trip_bank_scalar_bank():
    """bank → scalar state dicts → bank reproduces identical rows."""
    bank = KernelRateBank.from_estimators(make_rows(10))
    rng = np.random.default_rng(7)
    for _ in range(5):
        units = rng.integers(0, 30, size=10)
        counts = np.minimum(rng.integers(0, 30, size=10), units)
        fold = rng.random(10) < 0.6
        fold_one_row(bank, units.tolist(), counts.tolist(), fold.tolist(), True)
    states = [write_record(bank.state_row(i)) for i in range(10)]
    # Scalar estimators restore from bank-written state dicts...
    scalars = [ScalarKernelRateEstimator.from_state_dict(s) for s in states]
    assert_rows_identical(bank, scalars)
    # ...and feed back into a fresh bank, matching the original exactly.
    rebuilt = KernelRateBank.from_estimators(scalars)
    assert rates(rebuilt) == rates(bank)
    for i in range(10):
        assert write_record(rebuilt.state_row(i)) == write_record(bank.state_row(i))
    # load_row overwrites in place through the scalar validator.
    target = KernelRateBank.from_estimators(make_rows(10))
    for i in range(10):
        target.load_row(i, states[i])
    for i in range(10):
        assert write_record(target.state_row(i)) == write_record(bank.state_row(i))
    # a row reads back as a standalone estimator.
    assert ScalarKernelRateEstimator.from_state_dict(states[3]).state_dict() == states[3]


def test_prior_mass_default_resolves_to_plain_float():
    est = ScalarKernelRateEstimator(bandwidth=250.0)
    assert isinstance(est.prior_mass, float)
    assert est.prior_mass == pytest.approx(25.0)
    explicit = ScalarKernelRateEstimator(bandwidth=250.0, prior_mass=4.0)
    assert explicit.prior_mass == pytest.approx(4.0)
    with pytest.raises(ScanStatisticsError, match="prior_mass"):
        ScalarKernelRateEstimator(bandwidth=250.0, prior_mass=-1.0)
    assert dataclasses.replace(est).prior_mass == pytest.approx(25.0)
