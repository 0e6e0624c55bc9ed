"""Configuration objects for the online and offline engines.

Groups the paper's tunables in one place:

* the scan-statistics significance level ``α`` and horizon ``N`` (Eq. 5);
* SVAQ's static background probabilities / SVAQD's initial estimates and
  kernel bandwidth (§3.3);
* evaluation-facing knobs such as the ground-truth clip-coverage fraction.

The detection thresholds ``T_obj`` / ``T_act`` (§2) are the deployed
models' (``ModelZoo``): another operating point is another zoo.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.utils.validation import (
    require_positive,
    require_positive_int,
    require_probability,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.detectors.retry import RetryPolicy


@dataclass(frozen=True)
class OnlineConfig:
    """Shared configuration of SVAQ and SVAQD.

    ``horizon_ou`` is the ``N`` of Eq. 5 — the number of occurrence units
    the scan notionally spans.  The paper leaves it implicit; we default to
    five minutes of frames at 25 fps (the scale of one benchmark video),
    and expose it because ``k_crit`` depends on it only logarithmically
    (the ratio ``L = N/w`` enters through an exponent).

    ``object_p0`` / ``action_p0`` are the background probabilities: static
    for SVAQ (Algorithm 1's ``k_crit_*_init`` derive from them), initial
    values for SVAQD.  ``kernel_bandwidth_ou`` is SVAQD's kernel volume
    ``u`` in occurrence units.
    """

    alpha: float = 0.01
    horizon_ou: int = 7_500
    object_p0: float = 1e-4
    action_p0: float = 1e-4
    kernel_bandwidth_ou: float = 2_500.0
    #: SVAQD background-update policy.  §3.2 defines the background as the
    #: prediction distribution "when the query predicates are not satisfied",
    #: so the default folds only background-looking clips into the estimator
    #: (signal clips advance the clock with rate-preserving imputation).
    #: "all" folds every evaluated clip (estimates the marginal rate);
    #: "positive" is the literal Algorithm 3 line-7 trigger.  The
    #: contamination guard of the "negative" policy is positional: a
    #: query-negative clip is folded unless it is adjacent to a detection
    #: (a one-clip guard band) — clips just under ``k_crit`` at the edge of
    #: a genuine event would otherwise drag the background estimate up
    #: until the predicate can never fire again (a one-way ratchet).
    update_on: str = "negative"
    #: SVAQD probe cadence: every Nth clip is evaluated *without*
    #: short-circuiting so that predicates late in the evaluation order
    #: still observe null data — otherwise an early predicate that fails on
    #: most background clips starves the later predicates' background
    #: estimators (their quotas then collapse to 1 and any single spurious
    #: firing passes).  Costs 1/N extra inference; 0 disables probing.
    probe_every: int = 8
    #: Bursty-noise prior for the critical values (footnote 7): detector
    #: errors arrive in runs of roughly this mean length, so quotas are
    #: computed under a Markov model (exact FMCE at small windows,
    #: declumping at large ones) instead of i.i.d. Bernoulli.  ``None`` or
    #: 1.0 keeps the paper's i.i.d. Eq. 5.
    markov_burstiness: float | None = None
    #: Predicate evaluation order (footnote 5).  "user" evaluates in query
    #: order as the paper does; "cost" weighs each predicate's empirical
    #: clip-level selectivity (estimated from the probe clips) against its
    #: per-clip model cost (observed ``CostMeter`` ms-per-unit, falling back
    #: to the deployed profile) and ranks by expected cost-to-falsify — the
    #: cheapest likely-to-fail predicate runs first.  With static quotas (SVAQ)
    #: answers are identical either way; with dynamic quotas the order
    #: decides which predicates observe short-circuited clips, so
    #: borderline decisions can differ slightly.
    predicate_order: str = "user"
    #: Route per-clip predicate counting through a
    #: :class:`repro.detectors.cache.DetectionScoreCache` (count columns
    #: materialised chunk-wise in one vectorised pass) instead of per-clip
    #: ``score_clip`` calls.  Results and model-unit accounting are
    #: bit-identical for a single session; ``False`` keeps the pre-cache
    #: serial path as the equivalence reference.
    cache_detections: bool = True
    #: Clips per lazily-materialised cache chunk; larger chunks amortise
    #: the vectorised pass further at the cost of scoring ahead of the
    #: stream cursor (a chunk's column is a few KB per label, so memory
    #: is not the constraint).  0 asks the engine to plan the chunk size
    #: from the deployed models' measured per-clip cost
    #: (:func:`repro.core.optimizer.planned_chunk_clips`) instead of a
    #: constant.
    cache_chunk_clips: int = 256
    #: Model-invocation retry budget.  1 = fail fast (the fault-free
    #: default, which keeps every hot path bit-identical to the
    #: pre-fault-tolerance engine); >1 arms per-call retries with
    #: exponential backoff at the model boundary.
    retry_max_attempts: int = 1
    #: Base backoff before the second attempt, in seconds (doubling per
    #: further attempt).  0 retries immediately — right for the simulated
    #: substrate, where failures are injected rather than load-induced.
    retry_backoff_s: float = 0.0
    #: Per-invocation wall-clock deadline including backoff, or ``None``
    #: for attempts-only budgeting.
    retry_deadline_s: float | None = None
    #: What a clip does when a predicate's model gives up after retries:
    #: ``fail_clip`` (strict — the whole clip errors out), ``skip_predicate``
    #: (drop the predicate from this clip's conjunction and flag the clip
    #: degraded), or ``hold_last_estimate`` (reuse the predicate's previous
    #: clip's counts so SVAQD's background tracker advances smoothly).
    failure_policy: str = "fail_clip"
    #: Per-label overrides of ``failure_policy`` (label -> policy name).
    failure_policy_overrides: tuple[tuple[str, str], ...] = ()
    #: Let a fleet share one kernel rate series per (canonical query shape,
    #: registration position) across its SVAQD members — the estimator
    #: analogue of ``cache_detections``.  Duplicate queries then pay one
    #: Eq. 6 update and one quota refresh instead of N; results are
    #: bit-identical because duplicates see identical outcomes.  Sharing
    #: follows the block path: a fleet that goes clip by clip (no cache, or
    #: :attr:`fault_tolerant` armed) keeps every member's series private.
    share_rate_estimates: bool = True

    @property
    def fault_tolerant(self) -> bool:
        """Whether retry/degradation machinery is armed at all.

        False means the engine runs the exact pre-fault-tolerance code
        paths; the equivalence suites pin that bit-identity.
        """
        return (
            self.retry_max_attempts > 1
            or self.retry_deadline_s is not None
            or self.failure_policy != "fail_clip"
            or bool(self.failure_policy_overrides)
        )

    def retry_policy(self) -> "RetryPolicy":
        """The :class:`~repro.detectors.retry.RetryPolicy` this config arms."""
        from repro.detectors.retry import RetryPolicy

        return RetryPolicy(
            max_attempts=self.retry_max_attempts,
            backoff_s=self.retry_backoff_s,
            deadline_s=self.retry_deadline_s,
        )

    def __post_init__(self) -> None:
        require_probability(self.alpha, "alpha")
        require_positive_int(self.horizon_ou, "horizon_ou")
        require_probability(self.object_p0, "object_p0", open_interval=True)
        require_probability(self.action_p0, "action_p0", open_interval=True)
        require_positive(self.kernel_bandwidth_ou, "kernel_bandwidth_ou")
        if self.update_on not in ("negative", "all", "positive"):
            raise ConfigurationError(
                f"update_on must be negative/all/positive; got {self.update_on!r}"
            )
        if self.probe_every < 0:
            raise ConfigurationError("probe_every must be >= 0")
        if self.markov_burstiness is not None and self.markov_burstiness < 1.0:
            raise ConfigurationError("markov_burstiness must be >= 1")
        if self.predicate_order not in ("user", "cost"):
            raise ConfigurationError(
                f"predicate_order must be user/cost; "
                f"got {self.predicate_order!r}"
            )
        if self.cache_chunk_clips != 0:  # 0 = plan from measured costs
            require_positive_int(self.cache_chunk_clips, "cache_chunk_clips")
        require_positive_int(self.retry_max_attempts, "retry_max_attempts")
        if self.retry_backoff_s < 0.0:
            raise ConfigurationError("retry_backoff_s must be >= 0")
        if self.retry_deadline_s is not None and self.retry_deadline_s <= 0.0:
            raise ConfigurationError("retry_deadline_s must be positive")
        known = ("fail_clip", "skip_predicate", "hold_last_estimate")
        if self.failure_policy not in known:
            raise ConfigurationError(
                f"failure_policy must be one of {known}; "
                f"got {self.failure_policy!r}"
            )
        for label, policy in self.failure_policy_overrides:
            if policy not in known:
                raise ConfigurationError(
                    f"failure_policy override for {label!r} must be one of "
                    f"{known}; got {policy!r}"
                )

    def with_p0(self, p0: float) -> "OnlineConfig":
        """Both background probabilities set to ``p0`` (Figure 2's sweep)."""
        return replace(self, object_p0=p0, action_p0=p0)


@dataclass(frozen=True)
class RankingConfig:
    """Configuration of the offline phase (ingestion + RVAQ).

    Ingestion reuses an :class:`OnlineConfig` (``online``) to derive the
    per-label individual sequences with SVAQD (§4.2); ``default_k`` is the
    K of a ``top_k`` call that names none.
    """

    online: OnlineConfig = field(default_factory=OnlineConfig)
    default_k: int = 5
    require_exact_scores: bool = False  # §4.3: skip clips of decided top-K
                                        # sequences unless exact scores asked

    def __post_init__(self) -> None:
        require_positive_int(self.default_k, "default_k")
