"""Tracer implementations: null, bounded ring buffer, interval metrics.

The contract between the simulator and a tracer is deliberately thin:

* every component holds either ``None`` (tracing off — the hot paths pay
  exactly one ``is not None`` test) or the tracer object;
* :attr:`Tracer.now` is the current simulated cycle, advanced by the
  scheduler (the only layer that knows absolute time — replay inside a
  thread unit is analytic, so its events are stamped with the enclosing
  iteration's start cycle);
* :meth:`Tracer.emit` records one event, stamping ``now`` unless an
  explicit ``cycle`` is given.

Determinism: nothing here consumes simulator RNG streams or mutates
microarchitectural state, so a run with any tracer attached produces a
:class:`~repro.sim.results.SimResult` bit-identical to an untraced run,
and 1-in-N sampling is a plain modular counter (no randomness) so the
sampled stream itself is reproducible for a fixed seed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..common.errors import ConfigError
from .events import (
    CATEGORIES,
    Event,
    ITER_RETIRE,
    KIND_CATEGORY,
    L1_MISS,
    METRICS_CATEGORIES,
    WEC_HIT,
    WRONG_LOAD,
)

__all__ = ["Tracer", "NullTracer", "RingBufferTracer", "IntervalMetrics"]


class Tracer:
    """Base tracer: records nothing and costs (almost) nothing.

    Subclasses override :meth:`emit` and :meth:`wants`.  ``enabled`` is a
    class attribute components test once at construction time: when it is
    False they keep a ``None`` handle and never call into the tracer.
    """

    #: Class-level switch; components bind a handle only when True.
    enabled: bool = False

    __slots__ = ("now",)

    def __init__(self) -> None:
        #: Current simulated cycle, maintained by the scheduler.
        self.now: float = 0.0

    def wants(self, category: str) -> bool:
        """Whether events of ``category`` would be recorded at all."""
        return False

    def emit(
        self,
        kind: int,
        tu: int = 0,
        a: int = 0,
        b: int = 0,
        dur: float = 0.0,
        tag: str = "",
        cycle: Optional[float] = None,
    ) -> None:
        """Record one event (no-op in the base/null tracer)."""

    def events(self) -> List[Event]:
        """The recorded events in chronological (emission) order."""
        return []


class NullTracer(Tracer):
    """The zero-cost default: accepted everywhere, records nothing."""

    __slots__ = ()


class IntervalMetrics(Tracer):
    """Per-window time-series collector (IPC, miss/hit rates).

    Buckets events into fixed ``window``-cycle intervals and derives, per
    window:

    * **ipc** — retired instructions / window cycles;
    * **l1_miss_rate** — correct-path L1D misses / correct-path loads;
    * **wec_hit_rate** — sidecar hits / L1D misses (how often a miss was
      absorbed by the WEC/VC/PB);
    * **wrong_load_fraction** — wrong-execution loads / all loads.

    Usable standalone (as the run's tracer) or carried by a
    :class:`RingBufferTracer`, which forwards it every event before its
    own filtering/sampling so the series stay exact.
    """

    __slots__ = ("window", "_buckets")

    enabled = True

    def __init__(self, window: float = 4096.0) -> None:
        super().__init__()
        if window <= 0:
            raise ConfigError("interval window must be positive")
        self.window = float(window)
        self._buckets: Dict[int, List[int]] = {}

    # bucket layout: [instructions, loads, l1_misses, wec_hits, wrong_loads]

    def wants(self, category: str) -> bool:
        return category in METRICS_CATEGORIES

    def record(self, kind: int, cycle: float, a: int, b: int) -> None:
        """Fold one event into its window bucket."""
        if kind == L1_MISS:
            field = 2
        elif kind == WEC_HIT:
            field = 3
        elif kind == WRONG_LOAD:
            field = 4
        elif kind != ITER_RETIRE:
            return
        idx = int(cycle // self.window)
        bucket = self._buckets.get(idx)
        if bucket is None:
            bucket = [0, 0, 0, 0, 0]
            self._buckets[idx] = bucket
        if kind == ITER_RETIRE:
            bucket[0] += a
            bucket[1] += b
        else:
            bucket[field] += 1

    def emit(
        self,
        kind: int,
        tu: int = 0,
        a: int = 0,
        b: int = 0,
        dur: float = 0.0,
        tag: str = "",
        cycle: Optional[float] = None,
    ) -> None:
        self.record(kind, self.now if cycle is None else cycle, a, b)

    @property
    def n_windows(self) -> int:
        return len(self._buckets)

    def series(self) -> Dict[str, object]:
        """The collected time series as parallel lists (JSON-friendly).

        Windows with no events are omitted; ``window_start`` gives each
        window's first cycle so gaps stay unambiguous.
        """
        starts: List[float] = []
        ipc: List[float] = []
        miss_rate: List[float] = []
        wec_rate: List[float] = []
        wrong_frac: List[float] = []
        for idx in sorted(self._buckets):
            instr, loads, misses, wec_hits, wrong = self._buckets[idx]
            starts.append(idx * self.window)
            ipc.append(instr / self.window)
            miss_rate.append(misses / loads if loads else 0.0)
            wec_rate.append(wec_hits / misses if misses else 0.0)
            total_loads = loads + wrong
            wrong_frac.append(wrong / total_loads if total_loads else 0.0)
        return {
            "window": self.window,
            "window_start": starts,
            "ipc": ipc,
            "l1_miss_rate": miss_rate,
            "wec_hit_rate": wec_rate,
            "wrong_load_fraction": wrong_frac,
        }


class RingBufferTracer(Tracer):
    """Bounded event recorder with category filters and 1-in-N sampling.

    * ``capacity`` bounds memory: once full, the oldest events are
      overwritten (``n_dropped`` counts them) — full benches can run with
      tracing on without unbounded growth.
    * ``categories`` restricts recording to the named categories
      (default: all of :data:`~repro.obs.events.CATEGORIES`).
    * ``sample`` keeps every N-th event *per category* — a deterministic
      modular counter, so two identical runs sample identically.
    * ``metrics`` (an :class:`IntervalMetrics`) is forwarded **every**
      event before filtering and sampling, so interval series are exact
      even under aggressive sampling.
    """

    __slots__ = (
        "capacity",
        "sample",
        "metrics",
        "n_emitted",
        "n_dropped",
        "_cats",
        "_ring",
        "_head",
        "_seen",
    )

    enabled = True

    def __init__(
        self,
        capacity: int = 1 << 16,
        categories: Optional[Iterable[str]] = None,
        sample: int = 1,
        metrics: Optional[IntervalMetrics] = None,
    ) -> None:
        super().__init__()
        if capacity < 1:
            raise ConfigError("tracer capacity must be >= 1")
        if sample < 1:
            raise ConfigError("sampling rate must be >= 1 (1 = keep all)")
        cats = set(CATEGORIES) if categories is None else set(categories)
        unknown = cats - set(CATEGORIES)
        if unknown:
            raise ConfigError(
                f"unknown trace categories: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(CATEGORIES)})"
            )
        self.capacity = capacity
        self.sample = sample
        self.metrics = metrics
        self.n_emitted = 0
        self.n_dropped = 0
        self._cats = cats
        self._ring: List[Event] = []
        self._head = 0  # next overwrite position once the ring is full
        self._seen: Dict[str, int] = {c: 0 for c in CATEGORIES}

    def wants(self, category: str) -> bool:
        if category in self._cats:
            return True
        return self.metrics is not None and category in METRICS_CATEGORIES

    def emit(
        self,
        kind: int,
        tu: int = 0,
        a: int = 0,
        b: int = 0,
        dur: float = 0.0,
        tag: str = "",
        cycle: Optional[float] = None,
    ) -> None:
        ts = self.now if cycle is None else cycle
        if self.metrics is not None:
            self.metrics.record(kind, ts, a, b)
        cat = KIND_CATEGORY[kind]
        if cat not in self._cats:
            return
        seen = self._seen[cat]
        self._seen[cat] = seen + 1
        if seen % self.sample:
            return
        self.n_emitted += 1
        event = Event(ts, kind, tu, a, b, dur, tag)
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(event)
        else:
            ring[self._head] = event
            self._head = (self._head + 1) % self.capacity
            self.n_dropped += 1

    def events(self) -> List[Event]:
        """Recorded events, oldest first (unwrapping the ring)."""
        if len(self._ring) < self.capacity:
            return list(self._ring)
        return self._ring[self._head:] + self._ring[: self._head]

    def clear(self) -> None:
        """Drop all buffered events (counters keep running)."""
        self._ring.clear()
        self._head = 0

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (
            f"RingBufferTracer({len(self._ring)}/{self.capacity} buffered, "
            f"{self.n_dropped} dropped, sample=1/{self.sample}, "
            f"cats={sorted(self._cats)})"
        )
