"""The clause program against a naive interpreter of the footnote-4 recipe.

:func:`repro.core.indicators.evaluate_block` (static quotas, columns) and
:class:`repro.core.indicators.RowStepper` (moving quotas, plain ints) walk
the same CNF over label indexes; here both run random programs over random
count columns and must agree, row for row, with
:mod:`tests.reference.cnf_per_clip` — which labels get asked, what they
and the clauses read, the clip indicator and the charge columns.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indicators import BlockPlan, RowStepper, evaluate_block
from tests.reference.cnf_per_clip import algorithm2_row, cnf_row

LABELS = ("car", "dog", "bus", "running")
KINDS = ("object", "object", "object", "action")


class Columns:
    """Count columns handed over as a detection cache would."""

    def __init__(self, counts: dict[str, list[int]]) -> None:
        self._counts = {label: np.array(column) for label, column in counts.items()}

    def counts_block(self, kind: str, label: str, lo: int, hi: int) -> np.ndarray:
        assert kind == KINDS[LABELS.index(label)]
        return self._counts[label][lo:hi]

    def units_per_clip(self, kind: str) -> int:
        return 4 if kind == "action" else 8


class FixedQuotas:
    """As much of a quota manager as a stepper uses, with a bank whose
    updates leave the quotas where they are."""

    def __init__(self, quotas: dict[str, int]) -> None:
        self._trackers = {
            label: SimpleNamespace(k_crit=quota)
            for label, quota in quotas.items()
        }
        self.trackers = list(self._trackers.values())
        self.bank = SimpleNamespace(fold_row=lambda plan, row, evaluated, folds, quotas: [])
        self.fold_on = ((True, True), (True, True))
        self.context = None
        self.refresh_skipped = 0

    def labels(self) -> tuple[str, ...]:
        return tuple(self._trackers)

    def tracker(self, label: str) -> SimpleNamespace:
        return self._trackers[label]

    def plan(self, columns) -> list:
        return list(columns)


@st.composite
def programs(draw, *, conjunctive: bool = False):
    """Labels in a drawn order, a clause program over them (1–3 clauses ×
    1–3 literals × 1–2 labels, labels free to repeat — or one one-label
    literal per label), counts, quotas and the probe cadence."""
    labels = tuple(draw(st.permutations(LABELS))[: draw(st.integers(1, 4))])
    index = st.integers(0, len(labels) - 1)
    if conjunctive:
        clauses = tuple(((at,),) for at in range(len(labels)))
    else:
        literal = st.lists(index, min_size=1, max_size=2, unique=True).map(tuple)
        clause = st.lists(literal, min_size=1, max_size=3).map(tuple)
        clauses = tuple(draw(st.lists(clause, min_size=1, max_size=3)))
        used = {at for clause in clauses for literal in clause for at in literal}
        # A query's labels are exactly those its literals mention.
        labels = tuple(labels[at] for at in sorted(used))
        renumber = {at: new for new, at in enumerate(sorted(used))}
        clauses = tuple(
            tuple(tuple(renumber[at] for at in literal) for literal in clause)
            for clause in clauses
        )
    n = draw(st.integers(1, 12))
    count = st.integers(0, 4)
    return {
        "plan": BlockPlan(
            labels,
            tuple(KINDS[LABELS.index(label)] for label in labels),
            clauses,
            not conjunctive,
            tuple(draw(count) for _ in labels),
            draw(st.sampled_from([0, 1, 3])),
            draw(st.integers(0, 5)),
        ),
        "counts": {
            label: draw(st.lists(count, min_size=n, max_size=n)) for label in labels
        },
        "n": n,
        "short_circuit": draw(st.booleans()),
    }


def by_name(plan: BlockPlan):
    return [
        [[plan.labels[at] for at in literal] for literal in clause]
        for clause in plan.clauses
    ]


def is_lazy(plan: BlockPlan, row: int, short_circuit: bool) -> bool:
    probe = plan.probe_every > 0 and (plan.probe_offset + row) % plan.probe_every == 0
    return short_circuit and not probe


def run_kernel(case):
    plan = case["plan"]
    blocks, charges, owners = evaluate_block(
        Columns(case["counts"]), 0, case["n"], [plan, plan],
        short_circuit=case["short_circuit"],
    )
    assert blocks[0].evaluated.tolist() == blocks[1].evaluated.tolist()
    assert all(owner == 0 for column in owners for owner in column)
    times = {label: [t // 2 for t in column] for _kind, label, column in charges}
    assert all(
        (kind, label) in zip(plan.kinds, plan.labels) for kind, label, _ in charges
    )
    return blocks[0], times


def run_stepper(case):
    plan, n = case["plan"], case["n"]
    charges = [([0] * n, [0] * n) for _ in plan.labels]
    stepper = RowStepper(
        Columns(case["counts"]), 0, n, plan._replace(quotas=()),
        FixedQuotas(dict(zip(plan.labels, plan.quotas))),
        short_circuit=case["short_circuit"], carry=None,
        before=False, trace=False, askers=(1, 0, charges),
    )
    closes = stepper.run(n)  # clip ids, the rows here (the block starts at 0)
    positive = stepper.columns.positive.tolist()
    assert closes == [
        row for row, (before, now) in enumerate(zip([False, *positive], positive))
        if before and not now
    ]
    times = {label: column for label, (column, _owners) in zip(plan.labels, charges)}
    return stepper.columns, times


@settings(max_examples=300, deadline=None)
@given(case=programs())
def test_kernel_and_stepper_equal_the_naive_interpreter(case):
    plan = case["plan"]
    quotas = dict(zip(plan.labels, plan.quotas))
    for run in (run_kernel, run_stepper):
        columns, times = run(case)
        rows = columns.rows(0, case["n"])
        for row in range(case["n"]):
            counts = {label: case["counts"][label][row] for label in plan.labels}
            positive, asked, values = cnf_row(
                by_name(plan), counts, quotas,
                lazy=is_lazy(plan, row, case["short_circuit"]),
            )
            assert bool(columns.positive[row]) == positive
            for at, label in enumerate(plan.labels):
                assert bool(columns.evaluated[at, row]) == (label in asked)
                assert times[label][row] == (label in asked)
                if label in asked:
                    assert bool(columns.indicators(at, row, row + 1)[0]) == asked[label]
            got = rows[row]
            assert (got.clip_id, got.positive) == (row, positive)
            assert got.clause_values == values
            # Every label in evaluation order, the skipped ones marked so.
            assert [o.label for o in got.outcomes] == list(plan.labels)
            assert {o.label: o.indicator for o in got.outcomes if o.evaluated} == asked
            assert all(o.count == counts[o.label] for o in got.outcomes if o.evaluated)
            for label in plan.labels:
                assert got.outcome(label).evaluated == (label in asked)


@settings(max_examples=150, deadline=None)
@given(case=programs(conjunctive=True))
def test_one_label_literals_are_algorithm_2_in_that_order(case):
    plan = case["plan"]
    quotas = dict(zip(plan.labels, plan.quotas))
    for run in (run_kernel, run_stepper):
        columns, _times = run(case)
        rows = columns.rows(0, case["n"])
        for row in range(case["n"]):
            counts = {label: case["counts"][label][row] for label in plan.labels}
            positive, asked = algorithm2_row(
                plan.labels, counts, quotas,
                lazy=is_lazy(plan, row, case["short_circuit"]),
            )
            assert rows[row].positive == positive
            # Every label in evaluation order, the skipped ones marked so.
            assert [o.label for o in rows[row].outcomes] == list(plan.labels)
            assert {
                o.label: o.indicator for o in rows[row].outcomes if o.evaluated
            } == asked
            # Each label is its own clause: its indicator where asked.
            assert rows[row].clause_values == tuple(
                asked.get(label) for label in plan.labels
            )
