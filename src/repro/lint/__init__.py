"""reprolint — AST-based contract checker for the repro engine.

PRs 1–4 built the engine's value on invariants that nothing enforced
mechanically: bit-identical serial/batched/cached execution, every model
invocation charged exactly once to :class:`~repro.detectors.cost.CostMeter`,
versioned checkpoints that round-trip every field of mutable online state,
and seeded-only randomness so fault tapes replay.  ``reprolint`` turns those
conventions into CI-failing rules:

========  ======================  ==================================================
Code      Name                    Contract enforced
========  ======================  ==================================================
RL001     charge-discipline       model invocations go through ``invoke_with_retry``
RL002     checkpoint-completeness ``state_dict`` covers every ``__init__`` attribute
RL003     determinism             no unseeded RNG / wall-clock reads in replayable code
RL004     error-taxonomy          raises use :mod:`repro.errors`; no bare/swallowed except
RL005     float-equality          no ``==`` on float expressions in equivalence code
========  ======================  ==================================================

Run it with ``python -m repro.lint src tests``.  Findings can be suppressed
line-by-line with ``# reprolint: disable=CODE`` pragmas; see
:mod:`repro.lint.pragmas`.  The package has no dependencies beyond the
standard library.
"""

from __future__ import annotations

from repro.lint.base import Finding, LintContext, Rule, all_rules, register
from repro.lint.runner import LintReport, lint_paths

__all__ = [
    "Finding",
    "LintContext",
    "LintReport",
    "Rule",
    "all_rules",
    "lint_paths",
    "register",
]
