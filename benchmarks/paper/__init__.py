"""The paper's §5 experiments — one module per table, figure or ablation.

Every driver exposes ``run(seed=..., ...) -> <Result>``, where the result
dataclass carries the raw rows/series and a ``render()`` method printing
the table the paper reports, and ``check(result)``, the shape targets
DESIGN.md names for it.  ``run.py`` beside this file runs them and writes
``benchmarks/results/<name>.txt``; ``tests/eval`` runs them at a tiny
scale.  The drivers use ``repro``'s public modules and nothing here is
imported by ``repro``.
"""
