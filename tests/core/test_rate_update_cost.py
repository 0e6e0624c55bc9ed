"""One exponential per estimator row per quota update.

Every dynamic path — the block path's row stepper, a rate group's one
stepper for all its members, and the per-clip ``QuotaManager.update`` (a
one-row block) — folds a clip through ``KernelRateBank.fold_row``: per
row the Eq. 6 update and the row's new rate, computed once.  The
exponentials are where a second rate computation shows (a fold and an
advance take one each — an advance imputes the raw rate the row's last
posterior kept; a window's decay is computed once per manager), so they
are counted here.  A stepper's row reads a moved quota from the shared
Eq. 5 table inside that loop: it calls nothing in
``repro/scanstats/critical.py`` and no :class:`QuotaManager` method.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace
from unittest import mock

from repro.core.config import OnlineConfig
from repro.core.dynamics import QuotaManager
from repro.core.engine import OnlineEngine
from repro.core.indicators import RowStepper
from repro.core.query import CompoundQuery, Query
from repro.detectors.zoo import default_zoo
from repro.scanstats import critical, kernel
from tests.core.test_block_kernel import ACTION, VIDEO


#: What a produced row must not call.
QUOTAS = {f.__code__ for f in vars(QuotaManager).values() if hasattr(f, "__code__")}


def count_exponentials(run):
    """``run()``'s result and how often the kernel module called
    ``math.exp`` meanwhile (other modules' calls do not count), once no
    :meth:`RowStepper.run` called into critical.py or the manager."""
    calls = stray = 0

    def exp(x):
        nonlocal calls
        calls += 1
        return math.exp(x)

    def profile(frame, event, _arg):
        nonlocal stray
        code = frame.f_code
        if event == "call" and (code in QUOTAS or code.co_filename == critical.__file__):
            caller = frame.f_back
            while caller is not None and caller.f_code is not RowStepper.run.__code__:
                caller = caller.f_back
            stray += caller is not None

    with mock.patch.object(kernel, "math", SimpleNamespace(exp=exp)):
        sys.setprofile(profile)
        try:
            result = run()
        finally:
            sys.setprofile(None)
    assert stray == 0
    return result, calls


def assert_one_rate_per_update(
    calls: int, labels: int, updates: int, members: int = 1
) -> None:
    # Besides the updates: two decay constants per row at construction
    # (``keep`` and a clip window's decay) and each member's final rates.
    assert 0 < calls <= labels * updates + (2 + members) * labels


def test_a_solo_svaqd_session_computes_each_rate_once():
    query = Query(objects=["car", "dog"], action=ACTION)
    result, calls = count_exponentials(
        lambda: OnlineEngine(default_zoo(seed=3), OnlineConfig()).run(query, VIDEO)
    )
    assert result.stats.quota_refreshes == VIDEO.meta.n_clips
    assert_one_rate_per_update(calls, 3, result.stats.quota_refreshes)


def test_a_cnf_session_computes_each_rate_once():
    compound = CompoundQuery.disjunction(
        [Query(objects=["car"], action=ACTION), Query(objects=["dog"])]
    )
    result, calls = count_exponentials(
        lambda: OnlineEngine(default_zoo(seed=3), OnlineConfig()).run(compound, VIDEO)
    )
    assert_one_rate_per_update(calls, 3, result.stats.quota_refreshes)


def test_a_rate_group_computes_each_rate_once_for_all_its_members():
    query = Query(objects=["car", "dog"], action=ACTION)
    run, calls = count_exponentials(
        lambda: OnlineEngine(default_zoo(seed=3)).run_queries([query] * 3, VIDEO)
    )
    assert run["q2"].stats.quota_refreshes == VIDEO.meta.n_clips
    assert_one_rate_per_update(calls, 3, VIDEO.meta.n_clips, members=3)  # one series
