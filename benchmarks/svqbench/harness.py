"""Clocks, spans and the repetition loop shared by every svqbench workload.

Timing policy (README.md, "How timings are taken"): the sandbox is a shared
2-core box on which interference only ever *adds* time, so a repetition is
clocked in CPU seconds (``time.process_time``; ``time.thread_time`` for one
operation) and the reported value is that of the fastest of many
repetitions.  Quartiles and wall numbers ride along as diagnostics.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

#: ``harness.cpu_wall_ratio`` below this marks a run as disturbed.
DISTURBED_RATIO = 0.85

_NO_SPAN = contextlib.nullcontext()


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1, to three places) of two or more values, cut
    as ``statistics.quantiles`` cuts — the rule the benchmark driver's
    spread uses, so the harness has one."""
    return statistics.quantiles(values, n=1000)[round(q * 1000) - 1]


def tail_quantile(values: Sequence[float]) -> tuple[float, str]:
    """The highest of p90/p99/p99.9 that still has ten samples beyond it,
    with its name; the maximum when even p90 has not."""
    n = len(values)
    for q, name in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        if n * (1.0 - q) >= 10:
            return quantile(values, q), name
    return max(values), "max"


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Span:
    __slots__ = ("_tracer", "_row")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        # [name, start, end, cpu_s, parent, op]
        self._row = [name, 0.0, 0.0, 0.0, -1, tracer.op]

    def __enter__(self) -> None:
        tracer, row = self._tracer, self._row
        row[4] = tracer._stack[-1] if tracer._stack else -1
        tracer._stack.append(len(tracer.rows))
        tracer.rows.append(row)
        row[3] = time.thread_time()
        row[1] = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        row = self._row
        row[2] = time.perf_counter()
        row[3] = time.thread_time() - row[3]
        self._tracer._stack.pop()


class Tracer:
    """In-memory span recorder for the ``--trace 1`` run.

    The drivers wrap every call they make into a layer with
    ``with tracer.span("<layer>.<call>"):``.  Disabled, ``span`` hands out
    one shared no-op context, so the untraced run pays a method call per
    boundary and nothing else.  Spans nest by the ``with`` structure
    (``parent`` is the index of the enclosing span); ``op`` is the
    repetition the span belongs to (-1 = set-up or an extra pass).
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.op = -1
        self.rows: list[list[Any]] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def span(self, name: str) -> Any:
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name)

    # -- aggregation -------------------------------------------------------------

    def self_cpu(self) -> list[float]:
        """Per span: CPU seconds minus the CPU seconds of its child spans."""
        own = [row[3] for row in self.rows]
        for row in self.rows:
            if row[4] >= 0:
                own[row[4]] -= row[3]
        return own

    def per_op(self, name: str, ops: Iterable[int]) -> list[float]:
        """Self CPU seconds of ``name`` summed per repetition in ``ops``."""
        totals = {op: 0.0 for op in ops}
        for row, own in zip(self.rows, self.self_cpu()):
            if row[0] == name and row[5] in totals:
                totals[row[5]] += own
        return list(totals.values())

    def each(self, name: str, ops: Iterable[int] | None = None) -> list[float]:
        """CPU seconds of every single ``name`` span (optionally only those
        of the given repetitions)."""
        keep = None if ops is None else set(ops)
        return [
            row[3]
            for row in self.rows
            if row[0] == name and (keep is None or row[5] in keep)
        ]

    def to_json(self, max_ops: int) -> dict[str, Any]:
        """The span file: set-up and extra passes in full, repetitions up
        to ``max_ops`` (a 40-repetition fleet run is 150k advance spans)."""
        own = self.self_cpu()
        index: dict[int, int] = {}
        spans = []
        for i, row in enumerate(self.rows):
            if row[5] >= max_ops:
                continue
            index[i] = len(spans)
            spans.append({
                "name": row[0],
                "start": row[1] - self._t0,
                "end": row[2] - self._t0,
                "cpu_s": row[3],
                "self_cpu_s": own[i],
                "parent": index.get(row[4], -1),
                "workload": self.workload,
                "op": row[5],
            })
        return {
            "workload": self.workload,
            "clock": "start/end: wall seconds since the tracer was made; "
                     "cpu_s: time.thread_time of the span",
            "ops_kept": max_ops,
            "spans": spans,
        }


@dataclass
class Reps:
    """Clock readings of the timed repetitions of one body."""

    cpu: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    #: Per repetition, the CPU nanoseconds of every single operation (one
    #: ``advance``, one ``step``, one statement, one cold query start).
    op_ns: list[list[int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: What the last repetition's ``body`` returned.
    last: Any = None

    @property
    def run_cpu_s(self) -> float:
        """CPU seconds of the fastest repetition."""
        return min(self.cpu)

    @property
    def op_p50_ms(self) -> float:
        """Median operation CPU-ms within a repetition, of the repetition
        where that median is lowest (the least disturbed one)."""
        return min(statistics.median(ops) for ops in self.op_ns) / 1e6

    @property
    def all_ops(self) -> list[int]:
        return [ns for ops in self.op_ns for ns in ops]

    @property
    def cpu_wall_ratio(self) -> float:
        return sum(self.cpu) / sum(self.wall)


def measure(
    body: Callable[[list[int]], Any],
    check: Callable[[Any], tuple[int, int]],
    seconds: float,
    min_reps: int,
    tracer: Tracer,
) -> tuple[Reps, Reps]:
    """Repeat ``body`` for ``seconds`` (at least ``min_reps`` times).

    ``body(op_ns)`` runs the workload once, appending per-operation CPU
    nanoseconds to ``op_ns``; ``check(output)`` — outside the clocked
    region — returns ``(attempted, failed)`` operations for that output.

    Returns ``(reps, plain)``.  With the tracer off everything lands in
    ``reps``.  With it on, every other repetition runs untraced into
    ``plain`` (``min_reps`` applies to each), so the tracing overhead is
    a ratio of two samples interleaved in time, not of two phases that
    met different neighbours.
    """
    reps, plain = Reps(), Reps()
    tracing = tracer.enabled
    deadline = time.perf_counter() + seconds
    count = 0
    while (
        len(reps.cpu) < min_reps
        or (tracing and len(plain.cpu) < min_reps)
        or time.perf_counter() < deadline
    ):
        untraced = tracing and count % 2 == 0
        into = plain if untraced else reps
        tracer.enabled = tracing and not untraced
        tracer.op = len(reps.cpu)
        # Let go of the previous output first: two generations alive at
        # once would double what ``peak_rss_mb`` sees of the workload.
        into.last = None
        ops: list[int] = []
        w0 = time.perf_counter()
        c0 = time.process_time()
        with tracer.span("harness.rep"):
            out = body(ops)
        c1 = time.process_time()
        w1 = time.perf_counter()
        into.cpu.append(c1 - c0)
        into.wall.append(w1 - w0)
        into.op_ns.append(ops)
        attempted, failed = check(out)
        into.attempted += attempted
        into.failed += failed
        into.last = out
        del out
        count += 1
    tracer.enabled = tracing
    tracer.op = -1
    return reps, plain
