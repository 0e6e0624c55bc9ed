"""Retry policy for the model-invocation boundary.

Every place the engine crosses from bookkeeping into a deployed model —
:class:`~repro.core.indicators.ClipEvaluator`'s count helpers, the CNF
indicator closures, :func:`~repro.storage.ingest.ingest_video` — funnels
through :func:`invoke_with_retry`.  The policy is deliberately narrow:
only :class:`~repro.errors.ModelExecutionError` subclasses are retried
(infrastructure failures), never :class:`~repro.errors.DetectorError`
and friends (caller bugs), and exhausting the budget raises
:class:`~repro.errors.ModelGaveUpError` for the degradation layer to
translate into a per-predicate policy decision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import (
    ConfigurationError,
    CorruptedOutputError,
    ModelExecutionError,
    ModelGaveUpError,
)

__all__ = ["RetryPolicy", "invoke_with_retry", "ensure_finite"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry budget for one model invocation.

    ``max_attempts=1`` is the do-not-retry default — the fault-free hot
    path must not pay for machinery it does not use.  ``deadline_s``
    bounds the *whole* invocation including backoff sleeps: once the
    deadline passes, remaining attempts are forfeited.
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    backoff_multiplier: float = 2.0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1; got {self.max_attempts}"
            )
        if self.backoff_s < 0.0:
            raise ConfigurationError(
                f"backoff_s must be >= 0; got {self.backoff_s}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                "backoff_multiplier must be >= 1; "
                f"got {self.backoff_multiplier}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise ConfigurationError(
                f"deadline_s must be positive; got {self.deadline_s}"
            )

    def backoff_before(self, attempt: int) -> float:
        """Sleep before ``attempt`` (2-based; the first attempt never waits)."""
        if attempt <= 1 or self.backoff_s <= 0.0:
            return 0.0
        return self.backoff_s * self.backoff_multiplier ** (attempt - 2)


def ensure_finite(value: Any, what: str = "model output") -> Any:
    """Reject non-finite model output as :class:`CorruptedOutputError`.

    Corrupted frames surface as NaN scores, not exceptions — without this
    gate they would flow straight into count columns and quota updates.
    """
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise CorruptedOutputError(
            f"{what} contains {bad} non-finite score(s)"
        )
    return value


def invoke_with_retry(
    call: Callable[[], Any],
    policy: RetryPolicy,
    *,
    validate: Callable[[Any], Any] | None = None,
    describe: str = "model call",
    on_retry: Callable[[ModelExecutionError, int], None] | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Run ``call`` under ``policy``; return its (validated) value.

    ``validate`` runs inside the retry loop, so corrupted output is
    retried like any other model failure.  ``on_retry(error, attempt)``
    fires once per *failed attempt that will be retried* — the hook the
    engine uses to account retries in stats and meters.  Failures that
    exhaust the budget re-raise as :class:`ModelGaveUpError` with the
    final attempt's error attached.
    """
    started = clock()
    last_error: ModelExecutionError | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            pause = policy.backoff_before(attempt)
            if pause > 0.0:
                sleep(pause)
        try:
            value = call()
            if validate is not None:
                validate(value)
            return value
        except ModelExecutionError as exc:
            last_error = exc
            out_of_time = (
                policy.deadline_s is not None
                and clock() - started >= policy.deadline_s
            )
            if attempt >= policy.max_attempts or out_of_time:
                reason = (
                    "call deadline exceeded" if out_of_time
                    else f"{attempt} attempt(s) exhausted"
                )
                raise ModelGaveUpError(
                    f"{describe}: {reason}; last error: {exc}",
                    last_error=exc,
                ) from exc
            if on_retry is not None:
                on_retry(exc, attempt)
    raise ModelGaveUpError(  # pragma: no cover - loop always returns/raises
        f"{describe}: no attempts were made", last_error=last_error
    )
