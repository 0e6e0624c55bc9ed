"""The footnote-4 recipe on one clip, spelled out — the oracle for the
clause-program evaluators (:func:`repro.core.indicators.evaluate_block`,
:class:`repro.core.indicators.RowStepper`).

Deliberately naive: label names, dicts and explicit loops, one clip at a
time, nothing shared with the shipped code.  ``clauses`` is a sequence of
clauses, a clause a sequence of literals, a literal a sequence of label
names; ``counts`` and ``quotas`` map a label to its positive predictions
in the clip and its critical value.
"""

from __future__ import annotations

from typing import Mapping, Sequence

Clauses = Sequence[Sequence[Sequence[str]]]


def cnf_row(
    clauses: Clauses,
    counts: Mapping[str, int],
    quotas: Mapping[str, int],
    *,
    lazy: bool,
) -> tuple[bool, dict[str, bool], tuple[bool | None, ...]]:
    """The clip indicator, the indicator of every label that got asked
    (each at most once, however many literals mention it) and each
    clause's value — ``None`` for a clause a lazy walk never reached."""
    asked: dict[str, bool] = {}

    def indicator(label: str) -> bool:
        if label not in asked:
            asked[label] = counts[label] >= quotas[label]
        return asked[label]

    positive = True
    values: list[bool | None] = []
    for clause in clauses:
        if lazy and not positive:
            values.append(None)
            continue
        clause_holds = False
        for literal in clause:
            literal_holds = True
            for label in literal:
                if not indicator(label):
                    literal_holds = False
                    break
            if literal_holds:
                clause_holds = True
                break
        values.append(clause_holds)
        if not clause_holds:
            positive = False
    if not lazy:
        for clause in clauses:
            for literal in clause:
                for label in literal:
                    indicator(label)
    return positive, asked, tuple(values)


def algorithm2_row(
    labels: Sequence[str],
    counts: Mapping[str, int],
    quotas: Mapping[str, int],
    *,
    lazy: bool,
) -> tuple[bool, dict[str, bool]]:
    """Algorithm 2: the predicates in order, stopping at the first
    negative one when ``lazy``."""
    asked: dict[str, bool] = {}
    positive = True
    for label in labels:
        if lazy and not positive:
            break
        asked[label] = counts[label] >= quotas[label]
        if not asked[label]:
            positive = False
    return positive, asked
