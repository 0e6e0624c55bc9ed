"""Per-run execution accounting for the online pipeline.

Every streaming run — SVAQ or SVAQD, conjunctive or CNF — flows through
one :class:`repro.core.session.StreamSession`, and every session charges
its work to an :class:`ExecutionContext`: model invocations, predicate
evaluations saved by short-circuiting, probe clips, quota refreshes and
per-stage wall time.  The operator-style systems the roadmap points at
(Zeus, VidCEP) live or die by this kind of per-stage accounting; here it is
what the ``--stats`` CLI flag, :class:`repro.core.results.OnlineResult` and
the runtime-decomposition experiment surface.

A context can be private to one run (the default) or shared across runs
(pass one object through the engine/harness) in which case its counters
accumulate — that is how the runtime-decomposition experiment totals a
whole query set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping

from repro._typing import StateDict
from repro.errors import ConfigurationError, ModelTimeoutError

#: Stage names used by :class:`repro.core.session.StreamSession`.
STAGE_EVALUATE = "evaluate"
STAGE_QUOTAS = "quotas"
STAGE_ASSEMBLE = "assemble"
#: Sub-stage of the dynamic-quota path (SVAQD / compound): the
#: exponential-kernel estimator fold.  It is contained within
#: ``STAGE_QUOTAS``' wall time — it breaks the quota stage down, it does
#: not add to the pipeline total.
STAGE_ESTIMATOR = "estimator"


@dataclass(frozen=True)
class ExecutionStats:
    """Immutable snapshot of an :class:`ExecutionContext`.

    ``predicates_skipped`` counts predicate evaluations that never happened
    because an earlier predicate in the conjunction (or an earlier clause of
    the CNF) already decided the clip — the short-circuit savings Algorithm 2
    exists to realise.
    """

    clips_processed: int = 0
    probe_clips: int = 0
    detector_invocations: int = 0
    recognizer_invocations: int = 0
    #: Of the invocations above, how many were answered from the shared
    #: detection score cache instead of fresh model work.  Invocation
    #: counters always count *logical* Algorithm-2 invocations — identical
    #: with and without the cache — so the hit counters are a subset.
    detector_cache_hits: int = 0
    recognizer_cache_hits: int = 0
    predicates_evaluated: int = 0
    predicates_skipped: int = 0
    quota_refreshes: int = 0
    #: Per-label ``k_crit`` recomputations avoided because the rate
    #: estimate stayed inside its last quantised bucket (the incremental
    #: refresh fast path) — the dynamic-path analogue of a cache hit.
    refresh_skipped: int = 0
    #: Times the adaptive conjunct optimizer changed the evaluation order
    #: (``predicate_order="cost"``; 0 under user order).
    conjunct_reorders: int = 0
    sequences_emitted: int = 0
    #: Fault-tolerance accounting: failed attempts that were retried, of
    #: which how many were deadline timeouts, and invocations whose retry
    #: budget ran out entirely (each give-up then resolves through a
    #: degradation policy — the counters below).
    model_retries: int = 0
    model_timeouts: int = 0
    model_giveups: int = 0
    #: Degradation outcomes: predicate evaluations resolved by a
    #: degradation policy instead of a model answer, clips carrying at
    #: least one such predicate, and emitted sequences touching at least
    #: one degraded clip (their precision guarantee is weakened).
    predicates_degraded: int = 0
    clips_degraded: int = 0
    sequences_degraded: int = 0
    stage_wall_s: Mapping[str, float] = field(default_factory=dict)

    @property
    def model_invocations(self) -> int:
        """Total model calls (detector + recognizer)."""
        return self.detector_invocations + self.recognizer_invocations

    @property
    def cache_hits(self) -> int:
        """Model invocations served from the detection score cache."""
        return self.detector_cache_hits + self.recognizer_cache_hits

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of model invocations served from the cache."""
        total = self.model_invocations
        return self.cache_hits / total if total else 0.0

    @property
    def short_circuit_savings(self) -> float:
        """Fraction of predicate evaluations avoided by short-circuiting."""
        total = self.predicates_evaluated + self.predicates_skipped
        return self.predicates_skipped / total if total else 0.0

    def as_dict(self) -> StateDict:
        """JSON-friendly rendering (reports, ``--stats``)."""
        payload: StateDict = {name: getattr(self, name) for name in _COUNTERS}
        payload["cache_hit_rate"] = self.cache_hit_rate
        payload["short_circuit_savings"] = self.short_circuit_savings
        payload["stage_wall_s"] = dict(self.stage_wall_s)
        return payload

    @classmethod
    def from_dict(cls, payload: StateDict) -> "ExecutionStats":
        """Rebuild a snapshot from :meth:`as_dict` output.

        The payload may have travelled (a fleet bundle's ``contexts``), so
        it is read as outside input: exactly what ``as_dict`` writes, or a
        :class:`ConfigurationError` naming the key.  The derived ratios are
        recomputed properties; they and any unknown key are ignored.
        """
        if not isinstance(payload, Mapping) or not isinstance(
            payload.get("stage_wall_s"), Mapping
        ):
            raise ConfigurationError(
                "execution stats must be a mapping holding a 'stage_wall_s' "
                f"mapping; got {payload!r}"
            )
        stages = payload["stage_wall_s"]
        for name in _COUNTERS:
            value = payload.get(name)
            if type(value) is not int or value < 0:
                raise ConfigurationError(
                    f"execution stats {name!r} must be an int >= 0; got {value!r}"
                )
        for stage, seconds in stages.items():
            # ``not 0 <= x < inf`` is also how a NaN is caught.
            if type(seconds) not in (int, float) or not 0 <= seconds < math.inf:
                raise ConfigurationError(
                    f"execution stats stage_wall_s[{stage!r}] must be a finite "
                    f"number >= 0; got {seconds!r}"
                )
        return cls(
            stage_wall_s={stage: float(s) for stage, s in stages.items()},
            **{name: payload[name] for name in _COUNTERS},
        )

    def summary(self) -> str:
        """Human-readable multi-line rendering (the ``--stats`` output)."""
        lines = [
            "execution stats:",
            f"  clips processed      : {self.clips_processed}"
            f" ({self.probe_clips} probes)",
            f"  model invocations    : {self.model_invocations}"
            f" ({self.detector_invocations} detector,"
            f" {self.recognizer_invocations} recognizer)",
            f"  cache hits           : {self.cache_hits}"
            f" ({self.detector_cache_hits} detector,"
            f" {self.recognizer_cache_hits} recognizer;"
            f" hit rate {self.cache_hit_rate:.1%})",
            f"  fresh model calls    : "
            f"{self.model_invocations - self.cache_hits}",
            f"  predicates evaluated : {self.predicates_evaluated}",
            f"  predicates skipped   : {self.predicates_skipped}"
            f" (short-circuit savings {self.short_circuit_savings:.1%})",
            f"  quota refreshes      : {self.quota_refreshes}"
            f" ({self.refresh_skipped} label lookups skipped)",
            f"  sequences emitted    : {self.sequences_emitted}",
        ]
        if self.conjunct_reorders:
            lines.insert(
                -1,
                f"  conjunct reorders    : {self.conjunct_reorders}",
            )
        if (
            self.model_retries or self.model_timeouts or self.model_giveups
            or self.predicates_degraded or self.clips_degraded
            or self.sequences_degraded
        ):
            lines += [
                f"  model retries        : {self.model_retries}"
                f" ({self.model_timeouts} timeouts)",
                f"  model give-ups       : {self.model_giveups}",
                f"  degraded             : {self.predicates_degraded}"
                f" predicates, {self.clips_degraded} clips,"
                f" {self.sequences_degraded} sequences",
            ]
        for stage, seconds in self.stage_wall_s.items():
            lines.append(f"  stage {stage:<15}: {seconds * 1e3:.1f} ms")
        return "\n".join(lines)


@dataclass
class ExecutionContext:
    """Mutable per-stage counters one or more streaming runs write into."""

    clips_processed: int = 0
    probe_clips: int = 0
    detector_invocations: int = 0
    recognizer_invocations: int = 0
    detector_cache_hits: int = 0
    recognizer_cache_hits: int = 0
    predicates_evaluated: int = 0
    predicates_skipped: int = 0
    quota_refreshes: int = 0
    refresh_skipped: int = 0
    conjunct_reorders: int = 0
    sequences_emitted: int = 0
    model_retries: int = 0
    model_timeouts: int = 0
    model_giveups: int = 0
    predicates_degraded: int = 0
    clips_degraded: int = 0
    sequences_degraded: int = 0
    _stage_wall_s: dict[str, float] = field(default_factory=dict, repr=False)

    # -- recording ---------------------------------------------------------------

    def record_model_call(self, kind: str, n: int = 1, *, cached: bool = False) -> None:
        """Charge ``n`` invocations of one model family.

        ``kind`` is ``"object"`` (the detector) or ``"action"`` (the
        recognizer) — the same kind tags
        :class:`repro.core.indicators.PredicateOutcome` carries.
        ``cached=True`` marks invocations answered from the detection
        score cache: they still count as logical invocations (so cached
        and uncached runs meter identically) and additionally as hits.
        """
        if kind == "action":
            self.recognizer_invocations += n
            if cached:
                self.recognizer_cache_hits += n
        else:
            self.detector_invocations += n
            if cached:
                self.detector_cache_hits += n

    def record_retry(self, error: Exception) -> None:
        """Account one failed-but-retried model attempt."""
        self.model_retries += 1
        if isinstance(error, ModelTimeoutError):
            self.model_timeouts += 1

    def add_stage_time(self, stage: str, seconds: float) -> None:
        self._stage_wall_s[stage] = (
            self._stage_wall_s.get(stage, 0.0) + seconds
        )

    def merge(self, other: "ExecutionContext | ExecutionStats") -> None:
        """Fold another context's (or snapshot's) counters into this one.

        The thread-pool executor gives each video a private context and
        merges them in insertion order afterwards, so shared accounting
        stays exact without per-increment locking.
        """
        if isinstance(other, ExecutionContext):
            other = other.snapshot()
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for stage, seconds in other.stage_wall_s.items():
            self.add_stage_time(stage, seconds)

    def load_snapshot(self, stats: ExecutionStats) -> None:
        """Overwrite every counter from a frozen snapshot.

        The migration path uses this to make a resumed session's context
        continue *from* the checkpointed totals instead of restarting at
        zero — the resumed run's final stats then equal the uninterrupted
        run's (wall times excepted, since those measure real elapsed time).
        """
        for name in _COUNTERS:
            setattr(self, name, getattr(stats, name))
        self._stage_wall_s = dict(stats.stage_wall_s)

    # -- reading -----------------------------------------------------------------

    def stage_wall_s(self) -> dict[str, float]:
        """Accumulated wall seconds per pipeline stage."""
        return dict(self._stage_wall_s)

    def snapshot(self) -> ExecutionStats:
        """Freeze the current counters into an :class:`ExecutionStats`."""
        return ExecutionStats(
            stage_wall_s=dict(self._stage_wall_s),
            **{name: getattr(self, name) for name in _COUNTERS},
        )


#: The counter names, read from the one place they are declared (the
#: context's own field list is pinned equal by ``tests/core/test_context.py``).
_COUNTERS: tuple[str, ...] = tuple(
    f.name for f in fields(ExecutionStats) if f.name != "stage_wall_s"
)

