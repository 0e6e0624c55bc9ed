"""One rate per estimator row per quota update.

Every dynamic path — the block path's row stepper, the per-clip
``QuotaManager.update`` (CNF) and the rate book's flush — folds a clip
through ``KernelRateBank.update_row``: the Eq. 6 update and the row's new
rate, computed once.  The exponentials are where a second rate
computation shows (a fold takes one, an advance two; the per-units decay
is memoised), so they are counted here.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from unittest import mock

from repro.core.config import OnlineConfig
from repro.core.engine import OnlineEngine
from repro.core.query import CompoundQuery, Query
from repro.detectors.zoo import default_zoo
from repro.scanstats import kernel
from tests.core.test_block_kernel import ACTION, VIDEO


def count_exponentials(run):
    """``run()``'s result and how often the kernel module called
    ``math.exp`` meanwhile (other modules' calls do not count)."""
    calls = 0

    def exp(x):
        nonlocal calls
        calls += 1
        return math.exp(x)

    with mock.patch.object(kernel, "math", SimpleNamespace(exp=exp)):
        result = run()
    return result, calls


def assert_one_rate_per_update(calls: int, labels: int, updates: int) -> None:
    # Besides the updates: two decay constants per row at construction,
    # one memoised decay per distinct window size, the final rates.
    assert 0 < calls <= 2 * labels * updates + 8 * labels


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
    assert_one_rate_per_update(calls, 3, VIDEO.meta.n_clips)  # one series
