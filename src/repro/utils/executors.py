"""The one serial / thread selection for embarrassingly parallel batches
(per-video online runs, per-video ingestion)."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Literal, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.utils.validation import require_positive_int

R = TypeVar("R")
Executor = Literal["serial", "thread"]


def map_ordered(
    fn: Callable[..., R],
    tasks: Iterable[Sequence[Any]],
    executor: Executor,
    max_workers: int | None,
) -> list[R | Exception]:
    """``fn(*task)`` for every task, under ``"serial"`` or ``"thread"``;
    each task's result — or the exception it raised — in input order.

    Every task runs whatever the others did, so one failure never costs
    the rest of a batch; the caller decides what a failure means.
    ``max_workers`` is ``None`` (the pool's default) or a positive int,
    under either executor.
    """
    if executor not in ("serial", "thread"):
        raise ConfigurationError(f"unknown executor {executor!r}")
    if max_workers is not None:
        require_positive_int(max_workers, "max_workers")
    if executor == "serial":
        return [_outcome(fn, *task) for task in tasks]
    # Imported here so that ``import repro`` does not pay for the pool.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        submitted = [pool.submit(fn, *task) for task in tasks]
        return [_outcome(future.result) for future in submitted]


def _outcome(call: Callable[..., R], *args: Any) -> R | Exception:
    try:
        return call(*args)
    except Exception as exc:
        return exc
