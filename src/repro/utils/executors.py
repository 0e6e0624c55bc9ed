"""The one serial / thread / process selection for embarrassingly parallel
batches (per-video online runs, per-video ingestion)."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import ConfigurationError

R = TypeVar("R")


def map_ordered(
    fn: Callable[..., R],
    tasks: Iterable[Sequence[Any]],
    executor: str,
    max_workers: int | None,
    *,
    initializer: Callable[..., object] | None = None,
    initargs: tuple[Any, ...] = (),
) -> list[R | Exception]:
    """``fn(*task)`` for every task, under ``"serial"``, ``"thread"`` or
    ``"process"``; each task's result — or the exception it raised — in
    input order.

    Every task runs whatever the others did, so one failure never costs
    the rest of a batch; the caller decides what a failure means.  Under
    ``"process"`` everything crosses the pool pickled, and an exception
    may also be the transport's (unpicklable payload, dead worker).
    ``initializer(*initargs)`` runs once per worker — under ``"serial"``,
    once here.
    """
    if executor == "serial":
        if initializer is not None:
            initializer(*initargs)
        return [_outcome(fn, *task) for task in tasks]
    # Imported here, and each pool class only on first access, so that
    # ``import repro`` does not pay for the thread or process machinery.
    import concurrent.futures as futures

    if executor == "thread":
        pool_type: Callable[..., futures.Executor] = futures.ThreadPoolExecutor
    elif executor == "process":
        pool_type = futures.ProcessPoolExecutor
    else:
        raise ConfigurationError(f"unknown executor {executor!r}")
    with pool_type(
        max_workers=max_workers, initializer=initializer, initargs=initargs
    ) as pool:
        submitted = [pool.submit(fn, *task) for task in tasks]
        return [_outcome(future.result) for future in submitted]


def _outcome(call: Callable[..., R], *args: Any) -> R | Exception:
    try:
        return call(*args)
    except Exception as exc:
        return exc
