"""``map_ordered``: results or exceptions, in input order, under every
executor name."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.utils.executors import map_ordered

_installed: list[str] = []


def halve(n: int, scale: int = 1) -> float:
    if n % 2:
        raise ValueError(f"{n} is odd")
    return scale * n / 2


def install(tag: str) -> None:
    _installed.append(tag)


def read_installed() -> list[str]:
    return list(_installed)


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_results_and_exceptions_come_back_in_input_order(executor):
    got = map_ordered(halve, [(4,), (3,), (10, 3), (7,)], executor, 2)
    assert got[0] == 2.0 and got[2] == 15.0
    assert [type(r) for r in got] == [float, ValueError, float, ValueError]
    assert str(got[1]) == "3 is odd" and str(got[3]) == "7 is odd"


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_initializer_runs_where_the_tasks_run(executor):
    del _installed[:]
    (seen,) = map_ordered(
        read_installed, [()], executor, 1,
        initializer=install, initargs=("ready",),
    )
    assert seen == ["ready"]


def test_unknown_executor_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="unknown executor 'fibers'"):
        map_ordered(halve, [(2,)], "fibers", None)


def test_no_tasks():
    assert map_ordered(halve, [], "thread", None) == []
