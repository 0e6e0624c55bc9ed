"""Access accounting for the offline storage layer.

Tables 6 and 7 of the paper report the *number of random disk accesses*
each top-K algorithm performs against the clip score tables; runtime
follows the access pattern.  :class:`AccessStats` is the shared meter one
query execution threads through every table it touches.  An optional
latency model converts counts into simulated I/O time so runtime reports
keep the same shape as the paper's even though the tables live in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LatencyModel:
    """Simulated storage latencies (milliseconds per access).

    Defaults approximate a data file on disk with an OS page cache:
    sequential (sorted/reverse) accesses stream cheaply; random accesses
    pay a seek.
    """

    sequential_ms: float = 0.002
    random_ms: float = 0.5


@dataclass
class AccessStats:
    """Counts of each access kind performed during one query execution."""

    sorted_accesses: int = 0
    reverse_accesses: int = 0
    random_accesses: int = 0
    latency: LatencyModel = field(default_factory=LatencyModel)

    def charge_sorted(self, n: int = 1) -> None:
        self.sorted_accesses += n

    def charge_reverse(self, n: int = 1) -> None:
        self.reverse_accesses += n

    def charge_random(self, n: int = 1) -> None:
        self.random_accesses += n

    @property
    def sequential_accesses(self) -> int:
        """Sorted plus reverse accesses (both stream the sorted file)."""
        return self.sorted_accesses + self.reverse_accesses

    @property
    def simulated_ms(self) -> float:
        """Simulated I/O time under the latency model."""
        return (
            self.sequential_accesses * self.latency.sequential_ms
            + self.random_accesses * self.latency.random_ms
        )

    def merged_with(self, other: "AccessStats") -> "AccessStats":
        return AccessStats(
            sorted_accesses=self.sorted_accesses + other.sorted_accesses,
            reverse_accesses=self.reverse_accesses + other.reverse_accesses,
            random_accesses=self.random_accesses + other.random_accesses,
            latency=self.latency,
        )
