"""Simulated inference-cost accounting.

The paper reports that >98% of online query latency is model inference
(§5.2, "Runtime Superiority").  Without a GPU we cannot measure real
inference, so every simulated model charges its profile's per-unit latency
to a :class:`CostMeter`; the runtime-decomposition experiment then reports
the same inference/algorithm split the paper does.
"""

from __future__ import annotations

import threading
import weakref
from collections import defaultdict
from dataclasses import dataclass, field, make_dataclass
from typing import Any, cast

from repro._typing import StateDict
from repro.errors import ConfigurationError
from repro.utils.validation import Amount, Count

#: The per-model tables and the zero each sum starts from.  ``units`` is
#: real model work and ``cached_units`` work the detection score cache
#: avoided — tracked apart so the Table-8 metering stays exact: their sum
#: equals the units a cache-free run would charge.  ``retries`` and
#: ``giveups`` are failed-then-retried attempts and exhausted retry
#: budgets: retried attempts do real (wasted) backend work, so operators
#: need them itemised next to the useful units.
_TABLES: dict[str, type] = {
    "ms": float, "units": int, "cached_units": int, "retries": int,
    "giveups": int,
}


#: What :meth:`CostMeter.__getstate__` writes: per table, a value per model.
MeterState = make_dataclass(
    "MeterState",
    [(t, dict[str, Amount if z is float else Count]) for t, z in _TABLES.items()],
    frozen=True,
)


@dataclass(eq=False, repr=False)
class CostMeter:
    """Accumulates simulated inference milliseconds per model.

    Recording is guarded by a lock so one meter can be shared by threads
    without losing charges to read-modify-write races; reads, copies,
    comparisons and resets settle the standing charge ledgers first.
    """

    _tables: dict[str, defaultdict[str, Any]] = field(
        default_factory=lambda: {t: defaultdict(z) for t, z in _TABLES.items()}
    )
    _lock: threading.RLock = field(default_factory=threading.RLock)
    _standing: "weakref.WeakSet[Any]" = field(default_factory=weakref.WeakSet)

    def _settle(self) -> dict[str, defaultdict[str, Any]]:
        """The tables with every standing ledger's consumed rows booked (locked)."""
        for ledger in list(self._standing):
            ledger.book()
        return self._tables

    def _read(self, table: str, model: str | None) -> Any:
        with self._lock:
            values = self._settle()[table]
            if model is not None:
                return values.get(model, _TABLES[table]())
            return sum(values.values())

    def record(self, model: str, units: int, ms_per_unit: float) -> None:
        """Charge ``units`` inferences of ``model`` at ``ms_per_unit``."""
        if units < 0:
            raise ConfigurationError(f"units must be >= 0; got {units}")
        with self._lock:
            self._tables["ms"][model] += units * ms_per_unit
            self._tables["units"][model] += units

    def record_cached(self, model: str, units: int) -> None:
        """Record ``units`` served from a score cache (no latency charged)."""
        if units < 0:
            raise ConfigurationError(f"units must be >= 0; got {units}")
        with self._lock:
            self._tables["cached_units"][model] += units

    def observed_ms_per_unit(self, model: str, default: float) -> float:
        """Empirical mean milliseconds per unit, or ``default`` (the profile's
        rate) before any fresh charge for ``model`` has landed: the online
        cost signal the adaptive conjunct optimizer ranks predicates by."""
        with self._lock:
            units = self._settle()["units"].get(model, 0)
            if units <= 0:
                return default
            return cast(float, self._tables["ms"].get(model, 0.0) / units)

    def record_retry(self, model: str, n: int = 1) -> None:
        """Record ``n`` failed attempts of ``model`` that were retried."""
        with self._lock:
            self._tables["retries"][model] += n

    def record_giveup(self, model: str, n: int = 1) -> None:
        """Record ``n`` invocations of ``model`` whose retries ran out."""
        with self._lock:
            self._tables["giveups"][model] += n

    def retries(self, model: str | None = None) -> int:
        """Accumulated retried attempts."""
        return cast(int, self._read("retries", model))

    def giveups(self, model: str | None = None) -> int:
        """Accumulated exhausted retry budgets."""
        return cast(int, self._read("giveups", model))

    def ms(self, model: str | None = None) -> float:
        """Accumulated milliseconds for one model (or all models)."""
        return cast(float, self._read("ms", model))

    def units(self, model: str | None = None) -> int:
        """Accumulated inference invocations."""
        return cast(int, self._read("units", model))

    def cached_units(self, model: str | None = None) -> int:
        """Accumulated cache-served units (no inference ran for these)."""
        return cast(int, self._read("cached_units", model))

    def reset(self) -> None:
        with self._lock:
            for values in self._settle().values():
                values.clear()

    def merge(self, other: "CostMeter") -> None:
        """Fold another meter's charges into this one.

        The merge half of the fork/merge pattern the thread executor uses
        (:meth:`repro.detectors.zoo.ModelZoo.fork`): workers charge a
        private meter, and the shared meter absorbs each worker's total
        once at the end instead of taking the lock per inference.
        """
        theirs = other.__getstate__()
        with self._lock:
            for table, values in theirs.items():
                mine = self._tables[table]
                for model, value in values.items():
                    mine[model] += value

    # The lock is an implementation detail — drop it when copying and
    # rebuild it on restore.  ``copy.deepcopy`` and ``pickle`` go through
    # these hooks, which is what makes forked zoos cheap.

    def __getstate__(self) -> StateDict:
        with self._lock:
            return {
                table: dict(values) for table, values in self._settle().items()
            }

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CostMeter) and self.__getstate__() == other.__getstate__()

    def __setstate__(self, state: StateDict) -> None:
        # A pickle only ever comes from this build: a missing table is a
        # ``KeyError``, not a silently empty one.
        self._tables = {t: defaultdict(z, state[t]) for t, z in _TABLES.items()}
        self._lock, self._standing = threading.RLock(), weakref.WeakSet()
