"""KernelRateBank ≡ the scalar reference estimator, bit for bit.

The bank is the hot path behind SVAQD's dynamic quotas; the scalar
estimator in ``tests/reference/kernel_scalar.py`` is its reference, and a
row checkpoints in the scalar's format.  These properties pin the two together exactly —
``==`` on every state field and estimate, not tolerances — across random
observe_batch / advance interleavings through ``update_row``, and through
checkpoint round-trips in both directions.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScanStatisticsError
from repro.scanstats.kernel import KernelRateBank
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


def assert_rows_identical(
    bank: KernelRateBank, scalars: list[ScalarKernelRateEstimator]
) -> None:
    assert len(bank) == len(scalars)
    for i, est in enumerate(scalars):
        assert bank.state_dict_row(i) == est.state_dict()
        assert bank.rate_row(i) == est.rate


# A step drives every row through bank.update_row (units/counts/fold per
# row, mirrored by the scalar observe_batch / advance).
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
    """bank.update_row == scalar observe_batch/advance per row, and the
    rate it returns is the scalar's, at every step of an interleaving."""
    scalars = make_rows(n)
    bank = KernelRateBank.from_estimators(make_rows(n))
    for step in steps:
        for i, est in enumerate(scalars):
            units, counts, fold = step[i % len(step)]
            counts = min(counts, units)
            rate = bank.update_row(i, counts, units, fold)
            if fold:
                assert rate == est.observe_batch(counts, units)
            else:
                assert rate == est.advance(units)
        assert_rows_identical(bank, scalars)


def test_extend_absorbs_live_state():
    est = ScalarKernelRateEstimator(bandwidth=100.0, initial_p=1e-3)
    est.observe_batch(3, 50)
    est.advance(20)
    bank = KernelRateBank()
    rows = bank.extend([est])
    assert rows == range(0, 1)
    assert bank.state_dict_row(0) == est.state_dict()
    assert bank.rate_row(0) == est.rate
    more = bank.extend(make_rows(3))
    assert more == range(1, 4)
    assert len(bank) == 4
    # Growth leaves existing rows untouched.
    assert bank.state_dict_row(0) == est.state_dict()


def test_checkpoint_round_trip_bank_scalar_bank():
    """bank → scalar state dicts → bank reproduces identical rows."""
    bank = KernelRateBank.from_estimators(make_rows(10))
    rng = np.random.default_rng(7)
    for _ in range(5):
        units = rng.integers(0, 30, size=10)
        counts = np.minimum(rng.integers(0, 30, size=10), units)
        fold = rng.random(10) < 0.6
        for i in range(10):
            bank.update_row(i, int(counts[i]), int(units[i]), bool(fold[i]))
    states = [bank.state_dict_row(i) for i in range(10)]
    # Scalar estimators restore from bank-written state dicts...
    scalars = [ScalarKernelRateEstimator.from_state_dict(s) for s in states]
    assert_rows_identical(bank, scalars)
    # ...and feed back into a fresh bank, matching the original exactly.
    rebuilt = KernelRateBank.from_estimators(scalars)
    for i in range(10):
        assert rebuilt.state_dict_row(i) == bank.state_dict_row(i)
        assert rebuilt.rate_row(i) == bank.rate_row(i)
    # load_row overwrites in place through the scalar validator.
    target = KernelRateBank.from_estimators(make_rows(10))
    for i in range(10):
        target.load_row(i, states[i])
    for i in range(10):
        assert target.state_dict_row(i) == bank.state_dict_row(i)
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
