"""Counters and summary statistics used throughout the simulator.

The paper reports *relative speedups* and *normalized execution times*
against a baseline configuration, with benchmark averages computed as an
"execution time weighted average ... [that] gives equal importance to
each benchmark program independent of its total execution time"
(Lilja, *Measuring Computer Performance*, 2000).  Normalising every
benchmark to equal weight and then averaging total time is exactly the
harmonic mean of the per-benchmark speedups; both that and the
geometric mean are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence

from .errors import AnalysisError

__all__ = [
    "Counter",
    "CounterGroup",
    "speedup",
    "relative_speedup_pct",
    "normalized_time",
    "weighted_mean_speedup",
    "geometric_mean",
    "Histogram",
]


class Counter:
    """A single named event counter.

    A thin wrapper over an int that supports ``+=`` style accumulation
    while remaining cheap in hot loops (callers typically keep a local
    alias and call :meth:`add`).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = int(value)

    def add(self, n: int = 1) -> None:
        """Increment by ``n`` (default 1)."""
        self.value += n

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class CounterGroup:
    """A named collection of :class:`Counter` objects.

    Components register the counters they maintain; the simulation driver
    collects all groups into a flat result mapping at the end of a run.
    """

    __slots__ = ("prefix", "_counters")

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get (or lazily create) the counter called ``name``."""
        c = self._counters.get(name)
        if c is None:
            c = Counter(name)
            self._counters[name] = c
        return c

    def __getitem__(self, name: str) -> int:
        return self._counters[name].value if name in self._counters else 0

    def __iter__(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def reset(self) -> None:
        """Zero every counter in the group."""
        for c in self._counters.values():
            c.reset()

    def as_dict(self, qualified: bool = True) -> Dict[str, int]:
        """Export counter values, optionally qualified by the group prefix."""
        if qualified:
            return {f"{self.prefix}.{c.name}": c.value for c in self._counters.values()}
        return {c.name: c.value for c in self._counters.values()}

    def merge_from(self, other: "CounterGroup") -> None:
        """Accumulate the values of ``other`` into this group (by name)."""
        for c in other:
            self.counter(c.name).add(c.value)

    def __repr__(self) -> str:
        return f"CounterGroup({self.prefix!r}, {self.as_dict(qualified=False)})"


def speedup(base_time: float, new_time: float) -> float:
    """Classic speedup: baseline execution time over new execution time."""
    if new_time <= 0:
        raise AnalysisError(f"non-positive execution time: {new_time}")
    return base_time / new_time


def relative_speedup_pct(base_time: float, new_time: float) -> float:
    """Relative speedup in percent, as plotted in Figures 9–12, 15, 16.

    ``+10.0`` means the new configuration is 10% faster (takes
    ``base/1.10`` of the time); negative values are slowdowns.
    """
    return (speedup(base_time, new_time) - 1.0) * 100.0


def normalized_time(base_time: float, new_time: float) -> float:
    """Execution time normalized to the baseline (Figures 13 and 14)."""
    if base_time <= 0:
        raise AnalysisError(f"non-positive baseline time: {base_time}")
    return new_time / base_time


def weighted_mean_speedup(
    base_times: Sequence[float], new_times: Sequence[float]
) -> float:
    """Execution-time-weighted mean speedup over a benchmark suite.

    Each benchmark is first normalized to unit baseline time (equal
    importance regardless of its absolute run length, per the paper's
    methodology), then total normalized baseline time is divided by total
    normalized new time.  Algebraically this is the harmonic mean of the
    per-benchmark speedups.
    """
    if len(base_times) != len(new_times):
        raise AnalysisError("mismatched benchmark lists")
    if not base_times:
        raise AnalysisError("empty benchmark list")
    total = 0.0
    for b, n in zip(base_times, new_times):
        total += n / b if b > 0 else _raise_nonpositive(b)
    return len(base_times) / total


def _raise_nonpositive(value: float) -> float:
    raise AnalysisError(f"non-positive execution time: {value}")


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (for ratios)."""
    vals = list(values)
    if not vals:
        raise AnalysisError("geometric mean of empty sequence")
    prod = 1.0
    for v in vals:
        if v <= 0:
            raise AnalysisError(f"geometric mean requires positive values, got {v}")
        prod *= v
    return prod ** (1.0 / len(vals))


@dataclass
class Histogram:
    """A tiny fixed-bucket histogram for latency/run-length distributions."""

    edges: List[float] = field(default_factory=lambda: [1, 2, 4, 8, 16, 32, 64, 128, 256])
    counts: List[int] = field(default_factory=list)
    overflow: int = 0
    total: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * len(self.edges)
        if len(self.counts) != len(self.edges):
            raise AnalysisError("histogram counts/edges length mismatch")

    def record(self, value: float) -> None:
        """Record one observation."""
        self.total += 1
        for i, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[i] += 1
                return
        self.overflow += 1

    def fractions(self) -> List[float]:
        """Per-bucket fraction of the in-range observations.

        Overflow observations are excluded from the denominator as well
        as the buckets, so the fractions sum to 1 whenever any in-range
        observation exists.
        """
        in_range = self.total - self.overflow
        if in_range <= 0:
            return [0.0] * len(self.edges)
        return [c / in_range for c in self.counts]

    def merge_from(self, other: "Histogram") -> None:
        """Accumulate another histogram with identical edges."""
        if other.edges != self.edges:
            raise AnalysisError("cannot merge histograms with different edges")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.overflow += other.overflow
        self.total += other.total
