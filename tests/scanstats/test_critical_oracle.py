"""Eq. 5's NumPy kernel equals the scalar search it replaced, value for value.

:class:`~repro.scanstats.critical.CriticalValueTable` fills every bucket of
one ``(w, n, alpha)`` in one pass, and ``critical_value`` for an exact
``p`` is the one-row case of the same kernel.  Both are held here to the
scalar binary search in ``tests/reference/critical_scalar.py``: every
bucket of every table the system builds, and the exact ``p`` the
benchmarks ask for.
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import OnlineConfig
from repro.scanstats.naus import naus_scan_tail
from repro.scanstats.critical import (
    FLOOR,
    P_FLOOR,
    RESOLUTION,
    CriticalValueTable,
    critical_table,
    critical_value,
)
from repro.video.model import VideoGeometry
from tests.reference import critical_scalar, naus_scalar

#: Every ``(w, n, alpha)`` whose table the paper drivers
#: (``benchmarks/paper/run.py``), the six svqbench workloads, ``examples/``
#: and the CLI's ``demo``, ``query`` and ``serve`` build, recorded by
#: running them with ``CriticalValueTable`` construction logged.  The
#: drivers vary the clip size (fig4) and alpha (the alpha ablation); the
#: rest run the defaults.
TABLES = [
    (2, 750, 0.01), (3, 750, 0.01), (5, 750, 0.01), (8, 750, 0.01), (12, 750, 0.01),
    (20, 7500, 0.01), (30, 7500, 0.01), (50, 7500, 0.01), (80, 7500, 0.01),
    (120, 7500, 0.01),
    (5, 750, 0.001), (5, 750, 0.05), (5, 750, 0.2), (5, 750, 0.5),
    (50, 7500, 0.001), (50, 7500, 0.05), (50, 7500, 0.2), (50, 7500, 0.5),
]

#: svqbench's ``scanstats_probe`` grid (``benchmarks/svqbench/workloads.py``).
PROBE = [
    (p, w, n, 0.05)
    for p in (0.01, 0.03, 0.1, 0.3) for w in (10, 30) for n in (600, 6000)
]
#: Figure 2's p₀ sweep (``benchmarks/paper/fig2_background_prob.py``) at
#: the default geometry, objects and actions, and the Markov ablation's
#: i.i.d. baseline (``benchmarks/paper/ablation_markov.py``).
FIG2 = [
    (p, w, n, 0.01)
    for p in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1) for w, n in ((50, 7500), (5, 750))
]
EXACT = [*PROBE, *FIG2, (0.05, 12, 240, 0.05)]


def test_the_defaults_build_tables_on_the_list():
    """The list covers what the CLI and ``OnlineConfig()`` build."""
    geometry, config = VideoGeometry(), OnlineConfig()
    objects = (geometry.frames_per_clip, config.horizon_ou, config.alpha)
    actions = (
        geometry.shots_per_clip, config.horizon_ou // geometry.frames_per_shot, config.alpha
    )
    assert {objects, actions} <= set(TABLES)


@pytest.mark.parametrize("w, n, alpha", TABLES, ids=[f"w{w}-n{n}-a{a}" for w, n, a in TABLES])
def test_every_bucket_equals_the_scalar_search(w, n, alpha):
    table = CriticalValueTable(w, n, alpha)
    table.lookup(0.5)  # the first read fills it
    assert FLOOR == round(math.log10(P_FLOOR) / RESOLUTION) == -180
    assert sorted(table) == list(range(FLOOR, 1))
    assert table == {
        bucket: critical_scalar.bucket_row(bucket, w, n, alpha) for bucket in table
    }


@pytest.mark.parametrize("p, w, n, alpha", EXACT)
def test_an_exact_p_equals_the_scalar_search(p, w, n, alpha):
    for cap in (True, False):
        assert critical_value(p, w, n, alpha, cap_at_window=cap) == (
            critical_scalar.critical_value(p, w, n, alpha, cap)
        )


def test_the_shipped_scalar_tail_is_the_composed_one_bit_for_bit():
    """The tie-break's tail: Q1, Q2 and Q3 inline, in the operations of
    the functions they were."""
    for w, n in ((1, 10), (5, 5), (8, 6), (5, 750), (12, 240), (50, 7500)):
        for p in (1e-9, 3e-4, 0.01, 0.2, 0.7, 0.999):
            for k in range(0, w + 2):
                assert naus_scan_tail(k, w, n, p) == naus_scalar.naus_scan_tail(k, w, n, p)


def test_a_table_is_shared_and_reads_below_its_floor():
    table = critical_table(50, 7500, 0.01)
    assert critical_table(50, 7500, 0.01) is table
    assert table[FLOOR - 40] == table[FLOOR]
    assert table.lookup(0.0) == table[FLOOR][0]
