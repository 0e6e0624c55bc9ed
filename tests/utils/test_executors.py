"""``map_ordered``: results or exceptions, in input order, under
``"serial"`` and ``"thread"``; any other executor name is refused."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.utils.executors import map_ordered


def halve(n: int, scale: int = 1) -> float:
    if n % 2:
        raise ValueError(f"{n} is odd")
    return scale * n / 2


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_results_and_exceptions_come_back_in_input_order(executor):
    got = map_ordered(halve, [(4,), (3,), (10, 3), (7,)], executor, 2)
    assert got[0] == 2.0 and got[2] == 15.0
    assert [type(r) for r in got] == [float, ValueError, float, ValueError]
    assert str(got[1]) == "3 is odd" and str(got[3]) == "7 is odd"


@pytest.mark.parametrize("executor", ["fibers", "process"])
def test_unknown_executor_is_a_configuration_error(executor):
    with pytest.raises(ConfigurationError, match=f"unknown executor '{executor}'"):
        map_ordered(halve, [(2,)], executor, None)


@pytest.mark.parametrize("executor", ["serial", "thread"])
@pytest.mark.parametrize("max_workers", [0, -1])
def test_max_workers_must_be_positive(executor, max_workers):
    """Once a builtin ``ValueError`` under ``"thread"`` and silently
    accepted under ``"serial"``; ``None`` is the pool's default."""
    with pytest.raises(ConfigurationError, match="max_workers"):
        map_ordered(halve, [(2,)], executor, max_workers)
    assert map_ordered(halve, [(2,)], executor, None) == [1.0]


def test_no_tasks():
    assert map_ordered(halve, [], "thread", None) == []
