"""Deterministic fault injection for the simulated model substrate.

Standing queries run for days against flaky detector infrastructure; the
failure modes that matter in production — transient backend errors, call
timeouts, stuck (stale) outputs, corrupted NaN scores — must be
*reproducible* to be testable.  :class:`FaultInjector` wraps any of the
simulated models behind the same scoring interface and injects failures as
a pure function of ``(seed, model, method, video, label, unit, attempt)``:

* the same seed replays the exact same failure sequence, call for call;
* a **retry of the same invocation** rolls the next ``attempt`` index, so
  transient faults really are transient — the retry layer can recover;
* faults on one ``(video, label, clip)`` are independent of every other,
  so a session resumed from a checkpoint sees, for the clips it has not
  yet processed, exactly the faults the uninterrupted run would have seen
  (on the per-clip ``score_clip`` path, whose fault keys are per clip).

``faulty_zoo`` wraps a whole :class:`~repro.detectors.zoo.ModelZoo`;
named :data:`FAULT_PROFILES` back the CLI's ``--fault-profile`` knob and
the chaos benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from typing import Any, Callable

import numpy as np

from repro.detectors.zoo import ModelZoo
from repro.errors import (
    ConfigurationError,
    ModelTimeoutError,
    TransientModelError,
)
from repro.utils.rng import derive_rng

__all__ = [
    "FaultProfile",
    "FaultInjector",
    "faulty_zoo",
    "FAULT_PROFILES",
    "NO_FAULTS",
]

#: Injected failure modes, in cumulative-probability order.
_MODES = ("transient", "timeout", "nan", "stuck")


@dataclass(frozen=True)
class FaultProfile:
    """One reproducible failure regime.

    Rates are per *invocation attempt* and mutually exclusive (their sum
    must stay below 1); ``dead_labels`` hard-fail every attempt — the
    knob for testing degradation policies, since no amount of retrying
    recovers a dead model.
    """

    name: str = "custom"
    transient_rate: float = 0.0
    timeout_rate: float = 0.0
    nan_rate: float = 0.0
    stuck_rate: float = 0.0
    dead_labels: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        total = 0.0
        for mode in _MODES:
            rate = getattr(self, f"{mode}_rate")
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(
                    f"{mode}_rate must be in [0, 1); got {rate}"
                )
            total += rate
        if total >= 1.0:
            raise ConfigurationError(
                f"fault rates must sum below 1; got {total}"
            )

    @property
    def active(self) -> bool:
        """Whether this profile can inject anything at all."""
        return bool(self.dead_labels) or any(
            getattr(self, f"{mode}_rate") > 0.0 for mode in _MODES
        )

    def with_seed(self, seed: int) -> "FaultProfile":
        return dataclass_replace(self, seed=seed)


NO_FAULTS = FaultProfile(name="none")

#: Named regimes for ``--fault-profile`` and the chaos CI smoke runs.
FAULT_PROFILES: dict[str, FaultProfile] = {
    "none": NO_FAULTS,
    "transient": FaultProfile(
        name="transient", transient_rate=0.05, timeout_rate=0.02
    ),
    "flaky": FaultProfile(
        name="flaky", transient_rate=0.10, timeout_rate=0.05, nan_rate=0.03
    ),
    "chaos": FaultProfile(
        name="chaos",
        transient_rate=0.12,
        timeout_rate=0.05,
        nan_rate=0.05,
        stuck_rate=0.05,
    ),
}


def fault_profile(spec: str | FaultProfile | None) -> FaultProfile:
    """Resolve a profile name (CLI string) or pass a profile through."""
    if spec is None:
        return NO_FAULTS
    if isinstance(spec, FaultProfile):
        return spec
    try:
        return FAULT_PROFILES[spec]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault profile {spec!r}; "
            f"known: {', '.join(sorted(FAULT_PROFILES))}"
        ) from None


class FaultInjector:
    """Wraps one simulated model and injects the profile's failures.

    The wrapper is transparent — every attribute not intercepted here
    (``name``, ``profile``, ``threshold``, ``vocabulary``, caches, ...)
    forwards to the wrapped model, so it drops into a
    :class:`~repro.detectors.zoo.ModelZoo` slot unchanged.  Per-invocation
    attempt counters are the only mutable state; they reset with the
    process, which is exactly what makes replay deterministic.
    """

    def __init__(self, inner: Any, profile: FaultProfile) -> None:
        self._inner = inner
        self._fault_profile = profile
        #: (method, video_id, label, unit) -> next attempt index.
        self._attempts: dict[tuple, int] = {}
        #: mode -> injected-fault count (diagnostics and tests).
        self.fault_counts: dict[str, int] = {mode: 0 for mode in _MODES}

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__") or name in ("_inner",):
            raise AttributeError(name)
        return getattr(self.__dict__["_inner"], name)

    @property
    def injected_faults(self) -> int:
        return sum(self.fault_counts.values())

    # -- the fault roll ----------------------------------------------------------

    def _roll(self, method: str, video_id: str, label: str, unit: object) -> str | None:
        """Decide this attempt's fate; ``None`` means a clean call."""
        profile = self._fault_profile
        if label in profile.dead_labels:
            self.fault_counts["transient"] += 1
            raise TransientModelError(
                f"{self._inner.name}: backend for label {label!r} is down "
                f"({method} on {video_id!r}/{unit})"
            )
        key = (method, video_id, label, unit)
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        draw = float(
            derive_rng(
                profile.seed, "fault", self._inner.name,
                method, video_id, label, unit, attempt,
            ).random()
        )
        edge = 0.0
        for mode in _MODES:
            edge += getattr(profile, f"{mode}_rate")
            if draw < edge:
                self.fault_counts[mode] += 1
                return mode
        return None

    def _apply(
        self,
        method: str,
        video_id: str,
        label: str,
        unit: object,
        call: Callable[[], Any],
        stale_call: Callable[[], Any] | None = None,
    ) -> Any:
        """Run one wrapped invocation under the profile.

        ``stale_call`` produces the stuck-output payload (the previous
        unit's answer); when unavailable the stuck mode degrades to a
        clean call — stale data needs a past to be stale relative to.
        """
        mode = self._roll(method, video_id, label, unit)
        if mode == "transient":
            raise TransientModelError(
                f"{self._inner.name}: transient failure "
                f"({method} on {video_id!r}/{label}/{unit})"
            )
        if mode == "timeout":
            raise ModelTimeoutError(
                f"{self._inner.name}: call deadline exceeded "
                f"({method} on {video_id!r}/{label}/{unit})"
            )
        if mode == "stuck" and stale_call is not None:
            return stale_call()
        value = call()
        if mode == "nan":
            return self._corrupt(value, video_id, label, unit)
        return value

    def _corrupt(
        self, scores: np.ndarray, video_id: str, label: str, unit: object
    ) -> np.ndarray:
        """A NaN-speckled *copy* (the wrapped model memoises its arrays —
        corrupting in place would poison every later clean call)."""
        rng = derive_rng(
            self._fault_profile.seed, "nan", self._inner.name,
            video_id, label, unit,
        )
        corrupted = np.array(scores, dtype=float, copy=True)
        if corrupted.size:
            mask = rng.random(corrupted.size) < 0.25
            if not mask.any():
                mask[int(rng.integers(corrupted.size))] = True
            corrupted[mask.reshape(corrupted.shape)] = np.nan
        return corrupted


class FaultyObjectDetector(FaultInjector):
    """Fault-injecting proxy over a per-frame object detector."""

    def score_video(self, video: Any, truth: Any, label: str) -> Any:
        return self._apply(
            "score_video", video.video_id, label, "video",
            lambda: self._inner.score_video(video, truth, label),
        )

    def score_clip(self, video: Any, truth: Any, label: str, clip_id: int) -> Any:
        return self._apply(
            "score_clip", video.video_id, label, clip_id,
            lambda: self._inner.score_clip(video, truth, label, clip_id),
            stale_call=(
                (lambda: self._inner.score_clip(video, truth, label, clip_id - 1))
                if clip_id > 0 else None
            ),
        )


class FaultyActionRecognizer(FaultInjector):
    """Fault-injecting proxy over a per-shot action recognizer."""

    def score_video(self, video: Any, truth: Any, label: str) -> Any:
        return self._apply(
            "score_video", video.video_id, label, "video",
            lambda: self._inner.score_video(video, truth, label),
        )

    def score_clip(self, video: Any, truth: Any, label: str, clip_id: int) -> Any:
        return self._apply(
            "score_clip", video.video_id, label, clip_id,
            lambda: self._inner.score_clip(video, truth, label, clip_id),
            stale_call=(
                (lambda: self._inner.score_clip(video, truth, label, clip_id - 1))
                if clip_id > 0 else None
            ),
        )


class FaultyTracker(FaultInjector):
    """Fault-injecting proxy over an object tracker.

    The ingest-time fault unit is the whole-video call, as for the
    recogniser; its NaN mode speckles the score column.
    """

    def tracks_in_video(self, video: Any, truth: Any, label: str) -> Any:
        return self._apply(
            "tracks_in_video", video.video_id, label, "video",
            lambda: self._inner.tracks_in_video(video, truth, label),
        )

    def _corrupt(self, value: Any, video_id: str, label: str, unit: object) -> Any:
        return value._replace(
            scores=super()._corrupt(value.scores, video_id, label, unit)
        )


def faulty_zoo(zoo: ModelZoo, profile: FaultProfile | str) -> ModelZoo:
    """A zoo whose three models fail according to ``profile``.

    With an inactive profile the zoo is returned unwrapped, so
    ``faulty_zoo(zoo, "none")`` is exactly the fault-free line-up.
    """
    profile = fault_profile(profile)
    if not profile.active:
        return zoo
    return ModelZoo(
        detector=FaultyObjectDetector(zoo.detector, profile),
        recognizer=FaultyActionRecognizer(zoo.recognizer, profile),
        tracker=FaultyTracker(zoo.tracker, profile),
        cost_meter=zoo.cost_meter,
    )
