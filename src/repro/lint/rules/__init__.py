"""Rule catalog — importing this package registers every rule.

One module per rule keeps each contract's logic and rationale in one
place; add a new rule by dropping a module here, decorating the class
with :func:`repro.lint.base.register`, and importing it below.
"""

from __future__ import annotations

from repro.lint.rules import (  # noqa: F401  (registration side effects)
    charge,
    checkpoint,
    determinism,
    floats,
    taxonomy,
)

__all__ = [
    "charge",
    "checkpoint",
    "determinism",
    "floats",
    "taxonomy",
]
