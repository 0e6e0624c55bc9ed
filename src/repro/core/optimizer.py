"""Cost-based adaptive conjunct ordering — the online query optimizer.

Algorithm 2 short-circuits on the first negative predicate, so the
evaluation *order* decides how much model inference a negative clip costs.
The paper fixes the order to the user's (footnote 5); *Video Monitoring
Queries* (Koudas et al.) shows the win from ordering predicates by
observed selectivity × detector cost instead.  :class:`ConjunctOptimizer`
implements that rule online:

* **selectivity** comes from probe clips (clips evaluated without
  short-circuiting, so every predicate observes unbiased data) — per
  label, fired / probed;
* **cost** comes from the :class:`~repro.detectors.cost.CostMeter`'s
  observed milliseconds per unit (falling back to the deployed profile's
  rate before any charge has landed), scaled by the label's occurrence
  units per clip;
* **cross-query sharing** divides a label's effective cost by the number
  of live queries watching it, because a shared label's fresh inference
  is amortised across the fleet through the
  :class:`~repro.detectors.cache.DetectionScoreCache`.

The ranking key is the expected cost to falsify the conjunction through a
predicate: ``effective_cost / P(predicate fails)``, ascending — the
cheapest predicate most likely to fail runs first.  Ordering is computed
lazily and cached by a revision counter (probe folds and sharing updates
bump it), so the hot loop pays a dict lookup per clip, not a sort.

Chunk-cadence contract: static-quota sessions evaluate whole cache chunks
at a time, so they refresh the order once per *epoch* (= one cache chunk
of clips) via :meth:`ConjunctOptimizer.order_for_epoch` and store the
choice — a mid-chunk buffer re-materialisation or a checkpoint/resume
inside the epoch reuses the stored order, keeping the chunked path
bit-identical to the serial reference.  Dynamic (SVAQD) sessions refresh
per clip through :meth:`ConjunctOptimizer.current_order`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.utils.validation import Count, read_record, write_record
from repro.video.model import VideoGeometry
from repro._typing import StateDict

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.config import OnlineConfig
    from repro.detectors.zoo import ModelZoo

#: Probe observations a label needs before its empirical firing rate is
#: trusted; until then a label ranks by pure cost with an optimistic
#: always-falsifies prior.
MIN_PROBES = 3

_EPS = 1e-9

#: Fallback chunk size when the deployed models charge nothing (ideal
#: profiles) — matches the config default.
DEFAULT_CHUNK_CLIPS = 256
#: Simulated model milliseconds one chunk should amortise.  The paper
#: profiles (Mask R-CNN 90 ms × 50 frames + I3D 140 ms × 5 shots ≈ 5.2 s
#: per clip) plan ≈192 clips — the same order as the config default, but
#: cheap zoos get proportionally longer chunks and expensive ones
#: shorter, bounding how far a chunk scores ahead of the stream cursor.
_CHUNK_TARGET_MS = 1_000_000.0
_CHUNK_MIN_CLIPS = 32
_CHUNK_MAX_CLIPS = 2048


def planned_chunk_clips(zoo: "ModelZoo", geometry: VideoGeometry) -> int:
    """Cache chunk size planned from measured per-clip model cost.

    Uses the meter's observed ms-per-unit when charges exist (so a fleet
    that has already run inference plans from reality), else the deployed
    profiles' rates; clamped to keep both the vectorisation grain and the
    scoring lookahead sane.
    """
    per_clip_ms = 0.0
    for model, units in (
        (zoo.detector, geometry.frames_per_clip),
        (zoo.recognizer, geometry.shots_per_clip),
    ):
        per_clip_ms += units * zoo.cost_meter.observed_ms_per_unit(
            model.name, model.profile.ms_per_unit
        )
    if per_clip_ms <= 0.0:
        return DEFAULT_CHUNK_CLIPS
    planned = int(_CHUNK_TARGET_MS / per_clip_ms)
    return max(_CHUNK_MIN_CLIPS, min(_CHUNK_MAX_CLIPS, planned))


def resolved_chunk_clips(
    config: "OnlineConfig", zoo: "ModelZoo", geometry: VideoGeometry
) -> int:
    """The chunk size a cache should be built with: the config's constant,
    or the cost-planned size when ``cache_chunk_clips=0`` asks for it."""
    if config.cache_chunk_clips:
        return config.cache_chunk_clips
    return planned_chunk_clips(zoo, geometry)


@dataclass(frozen=True)
class OptimizerState:
    """:meth:`ConjunctOptimizer.state_dict`."""

    fired: dict[str, Count]
    probed: dict[str, Count]
    reorders: Count
    last_order: tuple[str, ...] | None
    epoch_index: Count | None
    epoch_order: tuple[str, ...] | None


class ConjunctOptimizer:
    """Online selectivity/cost tracker and conjunct ranker for one session.

    Owns the probe statistics (``fired``/``probed`` per label) that used
    to live on :class:`~repro.core.session.StreamSession`, the reorder
    counter surfaced in :class:`~repro.core.context.ExecutionStats`, and
    the per-epoch order storage the chunked path's resume parity depends
    on.  ``cost_fn`` maps a label to its expected fresh model cost for
    one clip in milliseconds (the evaluator provides it); ``mode`` is
    ``OnlineConfig.predicate_order``.
    """

    #: Not checkpointed (RL002): the label set, mode and cost function are
    #: constructor inputs rebuilt with the session; sharing degrees are
    #: re-pushed by the fleet after every (re-)registration; the revision
    #: counter and order cache are transient memoisation invalidated on
    #: load.
    _CHECKPOINT_EXCLUDE = frozenset(
        {
            "_labels",
            "_mode",
            "_cost_fn",
            "_sharing",
            "_revision",
            "_order_revision",
            "_order_cache",
        }
    )

    def __init__(
        self,
        labels: Iterable[str],
        mode: str = "user",
        cost_fn: Callable[[str], float] | None = None,
    ) -> None:
        if mode not in ("user", "cost"):
            raise ConfigurationError(
                f"predicate_order must be user/cost; got {mode!r}"
            )
        self._labels: tuple[str, ...] = tuple(labels)
        self._mode = mode
        self._cost_fn = cost_fn
        self._fired: dict[str, int] = {l: 0 for l in self._labels}
        self._probed: dict[str, int] = {l: 0 for l in self._labels}
        #: label -> number of live queries sharing it (only degrees > 1
        #: are kept, so solo fleets never bump the revision).
        self._sharing: dict[str, int] = {}
        self._revision = 0
        self._order_revision = -1
        self._order_cache: tuple[str, ...] | None = None
        #: The last order actually adopted (user order as None), for
        #: change detection across recomputations *and* resumes.
        self._last_order: tuple[str, ...] | None = None
        self._reorders = 0
        self._epoch_index: int | None = None
        self._epoch_order: tuple[str, ...] | None = None

    # -- observation -------------------------------------------------------------

    def observe(self, label: str, fired: int, probed: int = 1) -> None:
        """Fold ``probed`` probe observations (unbiased, non-degraded
        predicate evaluations), ``fired`` of which held, into the
        selectivity estimate."""
        self._probed[label] += probed
        self._fired[label] += int(fired)
        self._revision += 1

    def set_sharing(self, degrees: Mapping[str, int]) -> None:
        """Update cross-query sharing degrees (label -> live queries
        watching it).  The fleet pushes these on register/cancel."""
        shared = {
            label: int(count)
            for label, count in degrees.items()
            if int(count) > 1
        }
        if shared != self._sharing:
            self._sharing = shared
            self._revision += 1

    # -- introspection -----------------------------------------------------------

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def reorders(self) -> int:
        """How many times the computed order has changed so far."""
        return self._reorders

    def firing_rate(self, label: str) -> float | None:
        """Empirical probe firing rate, or ``None`` before any probe.

        ``None`` (not NaN) on purpose: these estimates flow into strict
        JSON payloads (``--stats-json``, the service health endpoint),
        where a bare ``NaN`` is invalid.
        """
        probed = self._probed.get(label, 0)
        if not probed:
            return None
        return self._fired[label] / probed

    def selectivity_estimates(self) -> dict[str, float | None]:
        """Per-label empirical firing rates (``None`` = not yet probed)."""
        return {label: self.firing_rate(label) for label in self._labels}

    def unit_costs_ms(self) -> dict[str, float] | None:
        """Per-label expected fresh cost of one clip evaluation, or
        ``None`` when no cost signal is attached."""
        if self._cost_fn is None:
            return None
        return {label: self._cost_fn(label) for label in self._labels}

    # -- ranking -----------------------------------------------------------------

    def current_order(self) -> tuple[str, ...] | None:
        """The adaptive evaluation order, or ``None`` when the user order
        stands.  Recomputed only when an observation or sharing update has
        landed since the last call; adopting a different order than last
        time bumps the reorder counter."""
        if self._mode == "user":
            return None
        if self._order_revision != self._revision:
            order = self._order_cache = self._compute_order()
            self._order_revision = self._revision
            previous = (
                self._last_order
                if self._last_order is not None
                else self._labels
            )
            if order != previous:
                self._reorders += 1
            self._last_order = order
        return self._order_cache

    def order_for_epoch(self, epoch: int) -> tuple[str, ...] | None:
        """The order for one chunk-aligned epoch of clips.

        Computed once at epoch entry and stored (it rides through
        checkpoints), so a mid-epoch buffer re-materialisation or a
        resumed session reuses the exact order the epoch started with —
        the chunked/serial parity contract.
        """
        if self._mode == "user":
            return None
        if self._epoch_index != epoch:
            self._epoch_index = epoch
            self._epoch_order = self.current_order()
        return self._epoch_order

    def _compute_order(self) -> tuple[str, ...]:
        def expected_cost_to_falsify(label: str) -> float:
            cost = self._cost_fn(label) if self._cost_fn is not None else 1.0
            cost /= max(1, self._sharing.get(label, 1))
            probed = self._probed[label]
            rate = (
                self._fired[label] / probed if probed >= MIN_PROBES else 0.0
            )
            return cost / max(1.0 - rate, _EPS)

        return tuple(sorted(self._labels, key=expected_cost_to_falsify))

    # -- checkpointing -----------------------------------------------------------

    def state(self) -> OptimizerState:
        """The probe statistics, the reorder bookkeeping and the current
        epoch's stored order."""
        return OptimizerState(
            self._fired, self._probed, self._reorders, self._last_order,
            self._epoch_index, self._epoch_order,
        )

    def state_dict(self) -> StateDict:
        return write_record(self.state())

    def load_state_dict(self, state: StateDict | OptimizerState) -> None:
        """Restore :meth:`state_dict` output, read as :class:`OptimizerState`
        declares it; a stored order must be an order of this session's
        labels."""
        record = read_record(OptimizerState, state, "optimizer checkpoint")
        for order in (record.last_order, record.epoch_order):
            if order is not None and sorted(order) != sorted(self._labels):
                raise ConfigurationError(f"checkpoint order {order} is not of {self._labels}")
        self._fired.update(record.fired)
        self._probed.update(record.probed)
        self._reorders = record.reorders
        self._last_order = record.last_order
        self._epoch_index = record.epoch_index
        self._epoch_order = record.epoch_order
        self._order_revision = -1  # force a recompute on next use
