"""Simulated inference-cost accounting.

The paper reports that >98% of online query latency is model inference
(§5.2, "Runtime Superiority").  Without a GPU we cannot measure real
inference, so every simulated model charges its profile's per-unit latency
to a :class:`CostMeter`; the runtime-decomposition experiment then reports
the same inference/algorithm split the paper does.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from repro.errors import ConfigurationError
from repro._typing import StateDict


@dataclass
class CostMeter:
    """Accumulates simulated inference milliseconds per model.

    Recording is guarded by a lock so one meter can be shared by the
    thread-pool executor of :meth:`repro.core.engine.OnlineEngine.run_many`
    without losing charges to read-modify-write races.
    """

    _ms: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _units: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: Units served from the detection score cache instead of fresh
    #: inference — tracked separately so the Table-8 metering stays exact:
    #: ``units`` is real model work, ``cached_units`` is work the cache
    #: avoided; their sum equals the units a cache-free run would charge.
    _cached_units: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    #: Failed-then-retried attempts and exhausted retry budgets per model.
    #: Retried attempts do real (wasted) backend work, so operators need
    #: them itemised next to the useful units above.
    _retries: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    _giveups: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    #: Algorithm wall seconds per named stage (``estimator``, ``refresh``)
    #: that no per-query :class:`~repro.core.context.ExecutionContext`
    #: owns — the fleet-shared rate book charges its fold/refresh time
    #: here so the dynamic-path cost stays observable next to inference.
    _stage_s: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, model: str, units: int, ms_per_unit: float) -> None:
        """Charge ``units`` inferences of ``model`` at ``ms_per_unit``."""
        if units < 0:
            raise ConfigurationError(f"units must be >= 0; got {units}")
        with self._lock:
            self._ms[model] += units * ms_per_unit
            self._units[model] += units

    def record_cached(self, model: str, units: int) -> None:
        """Record ``units`` served from a score cache (no latency charged)."""
        if units < 0:
            raise ConfigurationError(f"units must be >= 0; got {units}")
        with self._lock:
            self._cached_units[model] += units

    def observed_ms_per_unit(self, model: str) -> float | None:
        """Empirical mean milliseconds per unit, or ``None`` before any
        fresh charge for ``model`` has landed.  This is the online cost
        signal the adaptive conjunct optimizer ranks predicates by."""
        with self._lock:
            units = self._units.get(model, 0)
            if units <= 0:
                return None
            return self._ms.get(model, 0.0) / units

    def record_retry(self, model: str, n: int = 1) -> None:
        """Record ``n`` failed attempts of ``model`` that were retried."""
        with self._lock:
            self._retries[model] += n

    def record_giveup(self, model: str, n: int = 1) -> None:
        """Record ``n`` invocations of ``model`` whose retries ran out."""
        with self._lock:
            self._giveups[model] += n

    def record_stage(self, stage: str, seconds: float) -> None:
        """Charge ``seconds`` of algorithm wall time to a named stage."""
        if seconds < 0:
            raise ConfigurationError(f"seconds must be >= 0; got {seconds}")
        with self._lock:
            self._stage_s[stage] += seconds

    def stage_s(self, stage: str | None = None) -> float:
        """Accumulated stage seconds for one stage (or all stages)."""
        with self._lock:
            if stage is not None:
                return self._stage_s.get(stage, 0.0)
            return sum(self._stage_s.values())

    def stage_breakdown(self) -> dict[str, float]:
        """Seconds per stage, for reporting."""
        with self._lock:
            return dict(self._stage_s)

    def retries(self, model: str | None = None) -> int:
        """Accumulated retried attempts."""
        with self._lock:
            if model is not None:
                return self._retries.get(model, 0)
            return sum(self._retries.values())

    def giveups(self, model: str | None = None) -> int:
        """Accumulated exhausted retry budgets."""
        with self._lock:
            if model is not None:
                return self._giveups.get(model, 0)
            return sum(self._giveups.values())

    def ms(self, model: str | None = None) -> float:
        """Accumulated milliseconds for one model (or all models)."""
        with self._lock:
            if model is not None:
                return self._ms.get(model, 0.0)
            return sum(self._ms.values())

    def units(self, model: str | None = None) -> int:
        """Accumulated inference invocations."""
        with self._lock:
            if model is not None:
                return self._units.get(model, 0)
            return sum(self._units.values())

    def cached_units(self, model: str | None = None) -> int:
        """Accumulated cache-served units (no inference ran for these)."""
        with self._lock:
            if model is not None:
                return self._cached_units.get(model, 0)
            return sum(self._cached_units.values())

    def breakdown(self) -> dict[str, float]:
        """Milliseconds per model, for reporting."""
        with self._lock:
            return dict(self._ms)

    def reset(self) -> None:
        with self._lock:
            self._ms.clear()
            self._units.clear()
            self._cached_units.clear()
            self._retries.clear()
            self._giveups.clear()
            self._stage_s.clear()

    def merge(self, other: "CostMeter") -> None:
        """Fold another meter's charges into this one.

        The merge half of the fork/merge pattern the parallel executors
        use (:meth:`repro.detectors.zoo.ModelZoo.fork`): workers charge a
        private meter, and the shared meter absorbs each worker's total
        once at the end instead of taking the lock per inference.
        """
        with other._lock:
            ms = dict(other._ms)
            units = dict(other._units)
            cached = dict(other._cached_units)
            retries = dict(other._retries)
            giveups = dict(other._giveups)
            stage_s = dict(other._stage_s)
        with self._lock:
            for model, value in ms.items():
                self._ms[model] += value
            for model, value in units.items():
                self._units[model] += value
            for model, value in cached.items():
                self._cached_units[model] += value
            for model, value in retries.items():
                self._retries[model] += value
            for model, value in giveups.items():
                self._giveups[model] += value
            for stage, value in stage_s.items():
                self._stage_s[stage] += value

    # The lock is an implementation detail — drop it when pickling (for
    # process-pool workers) and rebuild it on restore.  ``copy.deepcopy``
    # goes through the same hooks, which is what makes forked zoos cheap.

    def __getstate__(self) -> StateDict:
        with self._lock:
            return {
                "_ms": dict(self._ms),
                "_units": dict(self._units),
                "_cached_units": dict(self._cached_units),
                "_retries": dict(self._retries),
                "_giveups": dict(self._giveups),
                "_stage_s": dict(self._stage_s),
            }

    def __setstate__(self, state: StateDict) -> None:
        self._ms = defaultdict(float, state["_ms"])
        self._units = defaultdict(int, state["_units"])
        self._cached_units = defaultdict(int, state.get("_cached_units", {}))
        self._retries = defaultdict(int, state.get("_retries", {}))
        self._giveups = defaultdict(int, state.get("_giveups", {}))
        self._stage_s = defaultdict(float, state.get("_stage_s", {}))
        self._lock = threading.Lock()
