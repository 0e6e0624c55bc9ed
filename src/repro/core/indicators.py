"""Per-clip predicate evaluation — Algorithm 2 and Eqs. 1–3.

For each queried object type the detector's per-frame indicators are
counted inside the clip and compared against the predicate's critical value
(Eq. 1); for the action the per-shot indicators are counted (Eq. 2).  What
a query makes of those per-label indicators is its **clause program**
(:attr:`BlockPlan.clauses`): a CNF over label indexes — a literal holds
when all its labels' indicators do, a clause when any of its literals
does, the clip when every clause does (footnotes 3–4).  The canonical
conjunctive query (Eq. 3) is the program whose clauses are single
one-label literals, one per predicate in evaluation order.  Clauses are
walked in order and evaluation is *lazy* — a literal stops at its first
negative label, a clause at its first literal that holds, the clip at its
first clause that does not (Algorithm 2, lines 6–8) — which is what saves
model invocations.  The same program drives all three evaluators here:
:func:`evaluate_block` (static quotas, a cache chunk at a time),
:class:`RowStepper` (dynamic quotas, a row at a time) and
:meth:`ClipEvaluator.evaluate` (one clip against the models).

Two counting backends implement Eq. 1/2, selected by
``OnlineConfig.cache_detections``:

* the **serial reference** (``cache_detections=False``): one ``score_clip``
  model call per evaluated predicate per clip — the pre-cache hot path,
  kept as the equivalence baseline;
* the **vectorised cache** (the default): per-clip counts come from a
  :class:`repro.detectors.cache.DetectionScoreCache`, whose columns are
  materialised chunk-wise in one reshape/sum pass.  Counts are precomputed
  but *charging* still follows the evaluation order — an unevaluated
  predicate charges nothing, an evaluated one charges the same units the
  serial path would — so results and metering are bit-identical for a
  single session, and sessions sharing one cache meter the shared work as
  cache hits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Literal, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext
from repro.core.optimizer import resolved_chunk_clips
from repro.core.query import CompoundQuery, Query
from repro.detectors.cache import DetectionScoreCache
from repro.detectors.retry import ensure_finite, invoke_with_retry
from repro.detectors.zoo import ModelZoo
from repro.errors import ConfigurationError, ModelGaveUpError, QueryError
from repro.utils.validation import Count, read_record
from repro.video.ground_truth import GroundTruth
from repro.video.model import VideoMeta
from repro._typing import StateDict

if TYPE_CHECKING:  # pragma: no cover - dynamics imports this module
    from repro.core.dynamics import QuotaManager


class PredicateOutcome(NamedTuple):
    """What happened for one predicate on one clip.

    ``evaluated`` is False when short-circuiting skipped the predicate;
    ``count``/``units`` are the positive predictions and occurrence units
    inside the clip (valid only when evaluated); ``indicator`` is
    ``1_{o_i}(c)`` / ``1_a(c)``.

    ``degraded`` marks an outcome resolved by a degradation policy rather
    than a model answer after retries ran out: a skipped predicate
    (``evaluated=False, indicator=True`` — excluded from the conjunction)
    or a held estimate (``evaluated=True`` with the previous clip's
    counts).  The quota layer advances past degraded outcomes instead of
    folding them into background estimates.

    A ``NamedTuple`` rather than a frozen dataclass: one instance is built
    per evaluated predicate per clip per session, and tuple construction
    is several times cheaper than a frozen dataclass ``__init__``.
    """

    label: str
    kind: Literal["object", "action"]
    evaluated: bool
    count: Count = 0
    units: Count = 0
    indicator: bool = False
    degraded: bool = False


class ClipEvaluation(NamedTuple):
    """Result of the clause program on one clip: the clip indicator
    ``1_q(c)`` plus per-predicate detail for SVAQD updates and noise
    metrics."""

    clip_id: Count
    positive: bool
    #: One outcome per label of the plan, in evaluation order; a label the
    #: lazy walk never reached is ``evaluated=False``.
    outcomes: tuple[PredicateOutcome, ...]
    #: Truth value per clause, ``None`` past the first false clause of a
    #: lazily evaluated clip.  A conjunctive query's clauses are its labels.
    clause_values: tuple[bool | None, ...]

    @property
    def degraded(self) -> bool:
        """Whether any predicate was resolved by a degradation policy."""
        return any(item.degraded for item in self.outcomes)

    def outcome(self, label: str) -> PredicateOutcome:
        for item in self.outcomes:
            if item.label == label:
                return item
        raise QueryError(f"no predicate {label!r} in this evaluation")

    def by_label(self) -> dict[str, PredicateOutcome]:
        """The outcomes keyed by label, as the quota update reads them."""
        return {item.label: item for item in self.outcomes}


class BlockPlan(NamedTuple):
    """One session's predicate as every evaluator here reads it: its labels
    in evaluation order with their kinds, the clause program over their
    indexes and, under static quotas, their (frozen) critical values.
    Block row ``i`` is a probe iff ``probe_offset + i`` (the session's
    clip index for that row) is a multiple of ``probe_every`` — the
    per-clip rule; probe rows evaluate *every* predicate, keeping the
    optimizer's selectivity estimates unbiased by the order and every
    dynamic estimator fed."""

    labels: tuple[str, ...]
    kinds: tuple[str, ...]
    #: Clauses of literals of indexes into ``labels``: the clip is positive
    #: when every clause has a literal all of whose labels' indicators hold.
    clauses: tuple[tuple[tuple[int, ...], ...], ...]
    #: A CNF query fixes its own clause order; a conjunctive one (each
    #: label its own clause) can be re-sequenced.
    compound: bool = False
    quotas: tuple[int, ...] = ()
    probe_every: int = 0
    probe_offset: int = 0

    def eager_rows(self, a: int, b: int, short_circuit: bool) -> np.ndarray | None:
        """bool[b - a]: the block rows of ``[a, b)`` that evaluate every
        label whatever the indicators — all of them with ``short_circuit``
        off, else the probes; ``None`` when there is no such row."""
        if not short_circuit:
            return np.ones(b - a, dtype=bool)
        if self.probe_every <= 0:
            return None
        eager = np.zeros(b - a, dtype=bool)
        eager[-(self.probe_offset + a) % self.probe_every :: self.probe_every] = True
        return eager

    def walk(
        self, fired: Callable[[int], bool], lazy: bool
    ) -> tuple[bool, tuple[bool | None, ...]]:
        """The clause program on one clip, reading ``fired(at)`` — the
        indicator of label ``at`` — only where the walk gets to it: the
        clip indicator and each clause's value, ``None`` for the clauses a
        ``lazy`` walk leaves out (those past the first false one)."""
        positive = True
        values: list[bool | None] = []
        for clause in self.clauses:
            if lazy and not positive:
                values.append(None)
                continue
            held = any(all(fired(at) for at in literal) for literal in clause)
            values.append(held)
            positive = positive and held
        return positive, tuple(values)


def evaluation_from_dict(state: Any, plan: BlockPlan) -> ClipEvaluation:
    """Rebuild a row of ``plan`` from a checkpoint's pending clip, read as
    :class:`ClipEvaluation` declares it, with one outcome per label of the
    plan (in any order) and one value per clause."""
    row = read_record(ClipEvaluation, state, "pending clip")
    kinds = dict(zip(plan.labels, plan.kinds))
    if sorted((o.label, o.kind) for o in row.outcomes) != sorted(kinds.items()):
        raise ConfigurationError(f"pending 'outcomes' must be one per label of {kinds}")
    if len(row.clause_values) != len(plan.clauses):
        raise ConfigurationError(f"pending 'clause_values' must be {len(plan.clauses)}, a clause each")
    return row


class ClipEvaluator:
    """Evaluates a query's clause program clip-by-clip against the
    deployed models.

    The evaluator is bound to one ``(video, truth, query, zoo)`` tuple —
    ``query`` conjunctive or CNF; the per-clip critical values arrive per
    call because SVAQD changes them as the stream evolves.
    """

    def __init__(
        self,
        zoo: ModelZoo,
        video: VideoMeta,
        truth: GroundTruth,
        query: Query | CompoundQuery,
        config: OnlineConfig | None = None,
        context: ExecutionContext | None = None,
        cache: DetectionScoreCache | None = None,
    ) -> None:
        self._zoo = zoo
        self._video = video
        self._truth = truth
        self._query = query
        self._config = config or OnlineConfig()
        #: Optional per-run counters; when set, every model invocation is
        #: recorded (the session attaches its ExecutionContext here).
        self.context = context
        query.validate_against(
            zoo.detector.declared_vocabulary, zoo.recognizer.declared_vocabulary
        )
        # Resolve the chunk grain once: the config constant, or the
        # cost-planned size under the ``cache_chunk_clips=0`` sentinel.
        # Serial (cache-free) sessions use the same value as their epoch
        # length so adaptive ordering refreshes on identical boundaries.
        self._chunk_clips = resolved_chunk_clips(
            self._config, zoo, video.geometry
        )
        if cache is None and self._config.cache_detections:
            cache = DetectionScoreCache(
                zoo, video, truth, chunk_clips=self._chunk_clips
            )
        elif cache is not None:
            cache.check_compatible(video, zoo)
            self._chunk_clips = cache.chunk_clips
        self._cache = cache
        # The clause program in the user's order: objects and relationship
        # indicators, then actions, as in the paper's listing.
        frames, actions = query.frame_level_labels, query.actions
        labels = (*frames, *actions)
        self._kinds = {
            label: "action" if label in actions else "object" for label in labels
        }
        at = {label: index for index, label in enumerate(labels)}
        compound = isinstance(query, CompoundQuery)
        self._plan = BlockPlan(
            labels,
            tuple(self._kinds.values()),
            tuple(
                tuple(tuple(at[l] for l in lit.all_labels) for lit in clause)
                for clause in query.clauses
            )
            if compound
            else tuple(((index,),) for index in range(len(labels))),
            compound,
        )
        # A skipped outcome carries no per-clip data, so one immutable
        # instance per label serves every clip it is skipped on.
        self._skipped = {
            label: PredicateOutcome(label, kind, evaluated=False)
            for label, kind in self._kinds.items()
        }
        # Fault tolerance: with the machinery disarmed (the default) no
        # retry or degradation code runs, so the equivalence suites can
        # pin bit-identity.
        self._armed = self._config.fault_tolerant
        self._retry = self._config.retry_policy() if self._armed else None
        self._policy_for = dict(self._config.failure_policy_overrides)
        self._default_policy = self._config.failure_policy
        #: label -> last successfully evaluated outcome, the source of
        #: ``hold_last_estimate`` replays.
        self._last_good: dict[str, PredicateOutcome] = {}

    @property
    def query(self) -> Query | CompoundQuery:
        return self._query

    @property
    def cache(self) -> DetectionScoreCache | None:
        """The detection score cache counts come from (None = serial path)."""
        return self._cache

    @property
    def chunk_clips(self) -> int:
        """The resolved chunk grain — the cache's block size, and the
        epoch length adaptive ordering refreshes on (identical for the
        cache-free reference path, so both paths reorder in lockstep)."""
        return self._chunk_clips

    def _model(self, kind: str) -> Any:
        return self._zoo.recognizer if kind == "action" else self._zoo.detector

    def unit_cost_ms(self, label: str) -> float:
        """Expected fresh model cost of evaluating ``label`` on one clip,
        in simulated milliseconds: occurrence units × the meter's observed
        ms-per-unit (profile rate before any charge).  The cost signal the
        conjunct optimizer ranks predicates by."""
        kind = self._kinds[label]
        model = self._model(kind)
        geometry = self._video.geometry
        units = (
            geometry.shots_per_clip if kind == "action"
            else geometry.frames_per_clip
        )
        return units * self._zoo.cost_meter.observed_ms_per_unit(
            model.name, model.profile.ms_per_unit
        )

    def plan(self, order: Sequence[str] | None = None) -> BlockPlan:
        """The query's clause program (quotas and probe cadence left for
        the session to fill in).  ``order`` re-sequences a conjunctive
        query's predicates; a CNF query fixes its own clause order."""
        if order is None:
            return self._plan
        labels = tuple(order)
        if self._plan.compound or frozenset(labels) != self._kinds.keys():
            raise QueryError(
                f"evaluation order {list(labels)} does not cover the query "
                f"predicates {sorted(self._kinds)}"
            )
        return self._plan._replace(
            labels=labels, kinds=tuple(self._kinds[l] for l in labels)
        )

    # -- per-predicate counting --------------------------------------------------

    def count(self, kind: str, label: str, clip_id: int) -> tuple[int, int]:
        """Positive predictions of ``label`` in the clip and the clip's
        occurrence units — Eq. 1's sum and |V(c)| for an object, Eq. 2's
        and |S(c)| for an action; charges inference."""
        if self._cache is not None:
            count, units, fresh = self._cache.lookup(kind, label, clip_id)
            if self.context is not None:
                self.context.record_model_call(kind, cached=not fresh)
            return count, units
        model = self._model(kind)
        scores = model.score_clip(self._video, self._truth, label, clip_id)
        if self._armed:
            ensure_finite(scores, f"{model.name} scores ({label!r}, clip {clip_id})")
        if self.context is not None:
            self.context.record_model_call(kind)
        return int(np.count_nonzero(scores >= model.threshold)), len(scores)

    # -- fault-tolerant counting -------------------------------------------------

    def robust_outcome(
        self, label: str, kind: str, clip_id: int, quota: int
    ) -> PredicateOutcome:
        """One predicate's outcome under retries and degradation.

        Runs :meth:`count` inside the configured
        :class:`~repro.detectors.retry.RetryPolicy`.  An exhausted budget
        resolves through the predicate's degradation policy:
        ``fail_clip`` re-raises (strict mode — the run crashes rather than
        degrade), ``skip_predicate`` drops the predicate from this clip
        (``indicator=True`` so the remaining predicates decide),
        ``hold_last_estimate`` replays the predicate's last good counts
        against the current quota.  A hold with no history falls back to a
        skip — there is nothing to hold yet.
        """
        model = self._model(kind).name
        context = self.context

        def on_retry(error: Exception, attempt: int) -> None:
            self._zoo.cost_meter.record_retry(model)
            if context is not None:
                context.record_retry(error)

        try:
            count, units = invoke_with_retry(
                lambda: self.count(kind, label, clip_id),
                self._retry,
                describe=f"{model} on {label!r} (clip {clip_id})",
                on_retry=on_retry,
            )
        except ModelGaveUpError:
            self._zoo.cost_meter.record_giveup(model)
            policy = self._policy_for.get(label, self._default_policy)
            if context is not None:
                context.model_giveups += 1
            if policy == "fail_clip":
                raise
            if context is not None:
                context.predicates_degraded += 1
            last = self._last_good.get(label)
            if policy == "hold_last_estimate" and last is not None:
                return PredicateOutcome(
                    label, kind, evaluated=True,
                    count=last.count, units=last.units,
                    indicator=last.count >= quota, degraded=True,
                )
            return PredicateOutcome(
                label, kind, evaluated=False, indicator=True, degraded=True
            )
        outcome = PredicateOutcome(
            label, kind, evaluated=True,
            count=count, units=units, indicator=count >= quota,
        )
        self._last_good[label] = outcome
        return outcome

    def held_state(self) -> StateDict:
        """Checkpoint payload of the hold-last-estimate memory."""
        return {
            label: [o.count, o.units]
            for label, o in self._last_good.items()
        }

    def load_held_state(self, held: Mapping[str, tuple[int, int]]) -> None:
        """Restore :meth:`held_state` output (read as the session checkpoint
        declares it); a label the query lacks is a
        :class:`ConfigurationError`."""
        if not held.keys() <= self._kinds.keys():
            raise ConfigurationError(
                f"checkpoint 'held' must map predicates of the query "
                f"({sorted(self._kinds)}) to [count, units]; got {held!r}"
            )
        self._last_good = {
            label: PredicateOutcome(
                label, self._kinds[label],
                evaluated=True, count=count, units=units,
            )
            for label, (count, units) in held.items()
        }

    # -- Algorithm 2 ----------------------------------------------------------------

    def evaluate(
        self,
        clip_id: int,
        k_crit: Mapping[str, int],
        *,
        short_circuit: bool = True,
        order: Sequence[str] | None = None,
    ) -> ClipEvaluation:
        """The clause program on one clip — Algorithm 2 for a conjunctive
        query, the footnote-4 recipe for a CNF one.

        ``k_crit`` maps every predicate label to its current critical
        value.  ``order`` overrides a conjunctive query's evaluation order
        (see :meth:`plan`); the predicate-order ablation passes
        selectivity-sorted orders here.  With ``short_circuit`` off every
        clause and every label is evaluated.
        """
        plan = self.plan(order)
        labels = plan.labels
        outcomes: list[PredicateOutcome | None] = [None] * len(labels)

        def fired(at: int) -> bool:
            outcome = outcomes[at]
            if outcome is None:
                label, kind = labels[at], plan.kinds[at]
                if self._armed:
                    outcome = self.robust_outcome(
                        label, kind, clip_id, k_crit[label]
                    )
                else:
                    count, units = self.count(kind, label, clip_id)
                    outcome = PredicateOutcome(
                        label, kind, True, count, units, count >= k_crit[label]
                    )
                outcomes[at] = outcome
            # A degraded skip is vacuously true: it must not short-circuit.
            return outcome.indicator

        positive, clause_values = plan.walk(fired, short_circuit)
        if not short_circuit:
            for at in range(len(labels)):  # whatever the lazy walk left out
                fired(at)
        return ClipEvaluation(
            clip_id, positive,
            tuple(
                self._skipped[label] if outcome is None else outcome
                for label, outcome in zip(labels, outcomes)
            ),
            clause_values,
        )


# -- the block kernel: Algorithm 2 over a cache chunk, for a whole fleet ---------------


class BlockColumns(NamedTuple):
    """One session's Algorithm-2 result over the clips ``[lo, lo + n)``, as
    columns; labels are in the plan's evaluation order.  Per-clip
    :class:`ClipEvaluation` objects are built only by :meth:`rows`."""

    lo: int
    plan: BlockPlan
    #: per label: occurrence units of a clip, a view of the cache's counts
    units: tuple[int, ...]
    counts: list[np.ndarray]
    #: bool[label, clip]: False where short-circuiting skipped it
    evaluated: np.ndarray
    #: bool[clip]: the clip indicator
    positive: np.ndarray
    #: Dynamic quotas only — bool[label, clip]: the predicate indicators
    #: as decided under the quotas then in force (``None``: recomputed
    #: from ``plan.quotas``).  Rows fill in as a :class:`RowStepper`
    #: produces them; read only those consumed.
    fired: np.ndarray | None = None
    #: Dynamic quotas with a trace recorded — per produced row, the
    #: quotas in force (one per tracker, in the manager's label order).
    quotas: list[tuple[int, ...]] | None = None
    #: Whether the rows were evaluated lazily (probe rows never are).
    short_circuit: bool = True

    def evaluation_counts(self, a: int, b: int) -> tuple[int, int, int]:
        """Predicate evaluations over rows ``[a, b)``: total, of object
        predicates, of action predicates."""
        per_label = self.evaluated[:, a:b].sum(axis=1).tolist()
        total = sum(per_label)
        actions = sum(
            n for n, kind in zip(per_label, self.plan.kinds) if kind == "action"
        )
        return total, total - actions, actions

    def indicator_counts(self, label: str, a: int, b: int) -> tuple[int, int]:
        """Rows of ``[a, b)`` that evaluated ``label``, and those of them
        on which its indicator fired."""
        if label not in self.plan.labels:
            raise QueryError(f"no predicate {label!r} in this evaluation")
        at = self.plan.labels.index(label)
        mask = self.evaluated[at, a:b]
        return int(np.count_nonzero(mask)), int(
            np.count_nonzero(mask & self.indicators(at, a, b))
        )

    def indicators(self, at: int, a: int, b: int) -> np.ndarray:
        """The ``at``-th label's indicator over rows ``[a, b)`` (valid
        where it was evaluated)."""
        if self.fired is not None:
            return self.fired[at, a:b]
        return self.counts[at][a:b] >= self.plan.quotas[at]

    def flips(self, run_open: bool) -> list[int]:
        """Rows at which the clip indicator changes, as run-length input
        to :meth:`SequenceAssembler.extend` (``run_open``: the indicator
        on entry).  Every second one closes a positive run."""
        positive = self.positive
        rows = (np.flatnonzero(positive[1:] != positive[:-1]) + 1).tolist()
        if bool(positive[0]) != run_open:
            rows.insert(0, 0)
        return rows

    def rows(self, a: int, b: int) -> list[ClipEvaluation]:
        """Materialise rows ``[a, b)`` — the very objects the per-clip
        evaluator builds.  Clause values are the walk over each row's
        outcomes: a label left unasked reads as not fired, as the negative
        label that stopped its literal before it did."""
        columns = []
        plan = self.plan
        for at, (label, kind, units, counts, evaluated) in enumerate(zip(
            plan.labels, plan.kinds, self.units, self.counts, self.evaluated,
        )):
            skipped = PredicateOutcome(label, kind, evaluated=False)
            columns.append([
                PredicateOutcome(label, kind, True, count, units, fired)
                if was_evaluated
                else skipped
                for count, was_evaluated, fired in zip(
                    counts[a:b].tolist(),
                    evaluated[a:b].tolist(),
                    self.indicators(at, a, b).tolist(),
                )
            ])
        eager = plan.eager_rows(a, b, self.short_circuit)
        lazy = [True] * (b - a) if eager is None else (~eager).tolist()
        return [
            ClipEvaluation(
                clip_id, positive, outcomes,
                plan.walk(lambda at: outcomes[at].indicator, is_lazy)[1],
            )
            for clip_id, (positive, outcomes, is_lazy) in enumerate(
                zip(self.positive[a:b].tolist(), zip(*columns), lazy),
                self.lo + a,
            )
        ]


def evaluate_block(
    cache: DetectionScoreCache,
    lo: int,
    hi: int,
    plans: Sequence[BlockPlan],
    *,
    short_circuit: bool = True,
) -> tuple[
    list[BlockColumns], list[tuple[str, str, list[int]]], list[list[int]]
]:
    """The clause programs of every session of a fleet over the clips
    ``[lo, hi)`` of one cache chunk, in one columnar pass.

    Quotas are fixed for the block (static policies only).  Semantics are
    those of :meth:`ClipEvaluator.evaluate` clip by clip: a label is
    evaluated on a clip iff the lazy walk reaches it there (or the clip is
    a probe, or ``short_circuit`` is off) — kept as one ``reach`` mask per
    literal, narrowed label by label.  Each distinct label's count column
    is fetched once and each distinct ``(label, k_crit)`` indicator
    computed once, whatever the number of sessions.

    Returns the sessions' :class:`BlockColumns` and, per distinct label,
    what the feed's :class:`~repro.detectors.cache.ChargeLedger` needs: a
    ``(kind, label, times)`` column (``times[i]`` counts the sessions that
    evaluated row ``i``) and ``owners``, where ``owners[i]`` is the first
    of those sessions in ``plans`` order — the one the per-clip order
    charges fresh.  Nothing is charged here.
    """
    n = hi - lo
    counts: dict[tuple[str, str], np.ndarray] = {}
    indicators: dict[tuple[tuple[str, str], int], np.ndarray] = {}
    asked: dict[tuple[str, str], tuple[list[int], list[np.ndarray]]] = {}
    ones = np.ones(n, dtype=bool)
    blocks = []
    for index, plan in enumerate(plans):
        sources = list(zip(plan.kinds, plan.labels))
        fired = []
        for source, quota in zip(sources, plan.quotas):
            column = counts.get(source)
            if column is None:
                column = counts[source] = cache.counts_block(*source, lo, hi)
                asked[source] = ([], [])
            indicator = indicators.get((source, quota))
            if indicator is None:
                indicator = indicators[source, quota] = column >= quota
            fired.append(indicator)
        eager = plan.eager_rows(0, n, short_circuit)
        evaluated = np.zeros((len(sources), n), dtype=bool)
        rows = list(evaluated)
        alive = ones  # rows on which every clause so far held
        for clause in plan.clauses:
            reached = alive if eager is None else alive | eager
            held = None  # rows on which a literal so far held
            for literal in clause:
                reach = reached if held is None else reached & ~held
                for at in literal:
                    np.logical_or(rows[at], reach, out=rows[at])
                    reach = reach & fired[at]
                held = reach if held is None else held | reach
            # Without eager rows the clause was reached on ``alive`` only.
            alive = held if eager is None else alive & held
        if eager is not None:
            evaluated |= eager
        for source, row in zip(sources, rows):
            asked[source][0].append(index)
            asked[source][1].append(row)
        blocks.append(
            BlockColumns(
                lo, plan,
                tuple(cache.units_per_clip(kind) for kind in plan.kinds),
                [counts[source] for source in sources],
                evaluated, alive, short_circuit=short_circuit,
            )
        )
    charges = []
    owners = []
    for (kind, label), (askers, masks) in asked.items():
        stack = np.array(masks)
        charges.append((kind, label, stack.sum(axis=0).tolist()))
        owners.append(np.array(askers)[stack.argmax(axis=0)].tolist())
    return blocks, charges, owners


class RowStepper:
    """Algorithm 3 over the clips ``[lo, hi)`` of one cache chunk, the
    rows up to a stop per :meth:`run`, for one rate group — the
    dynamic-quota counterpart of :func:`evaluate_block`.

    Quotas move from clip to clip (the runs over which they stand still
    average a handful of clips and cannot be known ahead: the update of
    clip ``c`` needs ``positive(c + 1)``), so rows are produced one at a
    time in one loop, on plain ints and floats: the group's count columns
    are fetched once (``counts_block(...).tolist()``), a row is the lazy
    walk of the clause program over them under the quotas in force
    (:meth:`ClipEvaluator.evaluate`'s semantics), then the *deferred*
    Eq. 6 update of the previous clip, whose guard band needs this row's
    indicator — one :meth:`KernelRateBank.fold_row` call through a plan
    compiled with the stepper (an advance imputes the raw rate a label's
    last posterior kept: one exponential a label; a rate that leaves its
    bucket reads its quota from the shared table in the same loop), and no
    call into the manager.  Row ``c`` is thus evaluated
    under quotas that reflect updates through clip ``c - 2``.  Results
    land in growable columns exposed as :attr:`columns`, which every
    member of the group reads; rows ``[0, cursor)`` are valid.

    ``carry`` is the pending clip handed over from the previous block
    (its outcome map and indicator — a positive run is open on entry iff
    it was positive), ``before`` the indicator of the clip before that.
    The group's owner is always among the readers, so the stepper moves
    the estimators as it produces a row.  ``askers`` is what pay-as-consumed
    charging needs (see :func:`evaluate_block`): how many sessions read
    this block, the first of them in fleet order, and per label the
    ``times`` and ``owners`` charge columns a produced row is entered
    into.  Nothing is charged here.
    """

    def __init__(
        self,
        cache: DetectionScoreCache,
        lo: int,
        hi: int,
        plan: BlockPlan,
        manager: "QuotaManager",
        *,
        short_circuit: bool,
        carry: tuple[Mapping[str, PredicateOutcome], bool] | None,
        before: bool,
        trace: bool,
        askers: tuple[int, int, Sequence[tuple[list[int], list[int]]]],
    ) -> None:
        n = hi - lo
        readers, first, charges = askers
        views = [
            cache.counts_block(kind, label, lo, hi)
            for kind, label in zip(plan.kinds, plan.labels)
        ]
        counts = [view.tolist() for view in views]
        units = tuple(cache.units_per_clip(kind) for kind in plan.kinds)
        self._manager = manager
        position = [plan.labels.index(label) for label in manager.labels()]
        #: Per label, what asking it on a row touches: its offset into the
        #: flat ``evaluated``/``fired`` columns, tracker, counts and charge
        #: columns.  The program is compiled onto these.
        slots = [
            (at * n, manager.tracker(label), column, times, owners)
            for at, (label, column, (times, owners)) in enumerate(
                zip(plan.labels, counts, charges)
            )
        ]
        lazy = tuple(
            tuple(tuple(slots[at] for at in literal) for literal in clause)
            for clause in plan.clauses
        )
        #: Probe rows (and every row with short-circuiting off) evaluate
        #: every label: they walk the program behind one clause per label
        #: that asks it and holds either way — the empty literal is
        #: vacuously true.  The other rows walk the lazy program.
        eager = (*(((slot,), ()) for slot in slots), *lazy)
        #: The indicators of the newest clip and of the one before it.
        self._last = bool(carry is not None and carry[1])
        self._before = bool(before)
        #: Clip ids at which the clip indicator changed, in order —
        #: :meth:`SequenceAssembler.extend`'s input.
        self.flips: list[int] = []
        self.cursor = 0
        labels = len(plan.labels)
        evaluated, fired, positive = bytearray(labels * n), bytearray(labels * n), bytearray(n)
        self.columns = BlockColumns(
            lo, plan, units, views,
            np.frombuffer(evaluated, dtype=bool).reshape(labels, n),
            np.frombuffer(positive, dtype=bool),
            np.frombuffer(fired, dtype=bool).reshape(labels, n),
            [] if trace else None,
            short_circuit,
        )
        #: What :meth:`run` reads, bound once a block: a fleet runs a
        #: stepper once a clip.  ``carry`` is the handed-over clip as the
        #: leading ``fold_row`` arguments, and the group's Eq. 6 update of a
        #: row is compiled for the block.
        self._bound = (
            self.columns.quotas, lazy if short_circuit else eager, eager,
            plan.probe_every, plan.probe_offset, evaluated, fired, positive, readers, first,
            manager.bank.fold_row, manager.plan([(j * n, counts[j], units[j]) for j in position]),
            manager.trackers, manager.fold_on,
            None if carry is None else manager.clip(carry[0]), lo,
        )

    def run(self, stop: int) -> list[int]:
        """Produce the rows up to ``stop`` in one loop, the block's
        constants bound once; returns the clip ids whose row closed a
        positive run."""
        (
            quotas, walk, eager, every, offset0, evaluated, fired, positives,
            readers, first, fold, plan, trackers, fold_on, carry, lo,
        ) = self._bound
        labels = len(trackers)
        last, before = self._last, self._before
        skipped = 0
        closed: list[int] = []
        for i in range(self.cursor, stop):
            if quotas is not None:
                quotas.append(tuple(tracker.k_crit for tracker in trackers))
            positive = True
            for clause in eager if every > 0 and (offset0 + i) % every == 0 else walk:
                for literal in clause:
                    for offset, tracker, counts, times, owners in literal:
                        at = offset + i
                        if not evaluated[at]:  # asked once a row, however often read
                            evaluated[at] = 1
                            if not times[i] or first < owners[i]:
                                owners[i] = first
                            times[i] += readers
                            if counts[i] >= tracker.k_crit:
                                fired[at] = 1
                        if not fired[at]:
                            break
                    else:
                        break  # every label fired: the literal holds, and the clause
                else:
                    positive = False  # no literal held: the clause decides the row
                    break
            if positive:
                positives[i] = 1
            if i:  # the previous clip's update, its guard band known now
                skipped += labels - len(
                    fold(plan, i - 1, evaluated, fold_on[last][before or positive], trackers)
                )
                before = last
            elif carry is not None:  # the clip handed over from the last block
                skipped += labels - len(fold(*carry, fold_on[last][before or positive], trackers))
                before = last
            if positive != last:
                if last:
                    closed.append(lo + i)
                last = positive
                self.flips.append(lo + i)
        self.cursor = stop
        self._last, self._before = last, before
        manager = self._manager  # its :meth:`QuotaManager.skipped`, without the call
        manager.refresh_skipped += skipped
        if manager.context is not None:
            manager.context.refresh_skipped += skipped
        return closed


class EvaluationLog(Sequence):
    """A run's per-clip evaluations, as a read-only sequence.

    Block-evaluated stretches are kept as :class:`BlockColumns` slices and
    a row is materialised each time it is read — no row cache is kept, so
    two reads of one index return equal, distinct objects.  The per-clip
    path's eagerly built evaluations (``evaluations``) are stored as they
    are.  Compares by value with tuples and other logs.
    """

    def __init__(self, evaluations: Iterable[ClipEvaluation] = ()) -> None:
        #: In order: lists of eager rows, and ``(columns, a, b)`` for rows
        #: ``[a, b)`` of a BlockColumns.
        self._segments: list[list | tuple] = [list(evaluations)]

    def extend_columns(self, columns: BlockColumns, a: int, b: int) -> None:
        """Record rows ``[a, b)`` of a block, unmaterialised."""
        last = self._segments[-1]
        if type(last) is tuple and last[0] is columns and last[2] == a:
            self._segments[-1] = (columns, last[1], b)
        else:
            self._segments.append((columns, a, b))

    def __len__(self) -> int:
        return sum(
            len(seg) if type(seg) is list else seg[2] - seg[1]
            for seg in self._segments
        )

    def __iter__(self):
        for seg in self._segments:
            yield from seg if type(seg) is list else seg[0].rows(*seg[1:])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        index = range(len(self))[index]  # normalises, or raises IndexError
        for seg in self._segments:
            if type(seg) is list:
                if index < len(seg):
                    return seg[index]
                index -= len(seg)
            else:
                columns, a, b = seg
                if index < b - a:
                    return columns.rows(a + index, a + index + 1)[0]
                index -= b - a

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EvaluationLog, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # mutable while its session runs

    def positive_clips(self) -> int:
        """How many clips evaluated positive — read off the columns."""
        return sum(
            sum(1 for ev in seg if ev.positive)
            if type(seg) is list
            else int(np.count_nonzero(seg[0].positive[seg[1] : seg[2]]))
            for seg in self._segments
        )

    def indicator_rate(self, label: str) -> float:
        """Fraction of the clips a predicate was evaluated on where its
        indicator fired — read off the columns."""
        evaluated = fired = 0
        for seg in self._segments:
            if type(seg) is list:
                outcomes = [ev.outcome(label) for ev in seg]
                evaluated += sum(1 for o in outcomes if o.evaluated)
                fired += sum(1 for o in outcomes if o.evaluated and o.indicator)
            else:
                seen, held = seg[0].indicator_counts(label, *seg[1:])
                evaluated += seen
                fired += held
        return fired / evaluated if evaluated else 0.0
