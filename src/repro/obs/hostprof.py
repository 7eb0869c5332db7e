"""Host-side self-profiling: wall-clock attribution for the simulator.

The simulator itself is a Python program with hot loops; when its
throughput (simulated work per wall-second) regresses, *where* the time
went matters as much as *that* it went.  :class:`HostProfiler` is a set
of named section accumulators the simulator components stamp with
``time.perf_counter()`` pairs at coarse, already-existing boundaries:

* ``scheduler.parallel`` / ``scheduler.sequential`` — one pair per
  region invocation, timed on both engines by the region loop they
  share (:func:`repro.sim.results.run_regions`) around each region run
  (these enclose everything below);
* ``tu.ifetch`` / ``tu.replay`` / ``tu.writeback`` — the cache-hierarchy
  instruction-fetch loop, the dynamic-stream replay (loads, branch
  frontend, wrong-path injection) and the store-commit loop, one pair
  each per iteration/chunk (oracle only);
* ``tu.wrong_thread`` — wrong-thread execution after a loop exit
  (oracle only);
* ``tracer.emit`` — tracer overhead, measured by wrapping an attached
  tracer in :class:`TracerOverheadProxy` (only when a run is both
  traced *and* profiled).

Granularity is deliberately per-iteration, not per-event: an iteration
replays hundreds of events, so the timer pairs are amortized and the
profiler's own overhead stays within the ≤5% budget the perf tests
enforce (``tests/test_perf_obs.py``).  Components hold ``None`` when
profiling is off and pay one ``is not None`` test per section.

Section times are *inclusive*: the ``tu.*`` sections run inside the
``scheduler.*`` ones, so percentages are reported against total wall
time, not against each other.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from .tracer import Tracer

__all__ = ["HostProfiler", "TracerOverheadProxy", "peak_rss_kb"]


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB, if measurable."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalize to KiB.
    import sys
    if sys.platform == "darwin":
        return int(usage // 1024)
    return int(usage)


class HostProfiler:
    """Accumulates (seconds, calls) per named section.

    Sections are created lazily by :meth:`add`; the snapshot reports
    each one as seconds, call count and percent of a caller-supplied
    total wall time.
    """

    __slots__ = ("_sections",)

    def __init__(self) -> None:
        self._sections: Dict[str, list] = {}  # name -> [seconds, calls]

    def add(self, name: str, seconds: float) -> None:
        """Fold one timed span into section ``name``."""
        cell = self._sections.get(name)
        if cell is None:
            self._sections[name] = [seconds, 1]
        else:
            cell[0] += seconds
            cell[1] += 1

    def seconds(self, name: str) -> float:
        cell = self._sections.get(name)
        return cell[0] if cell is not None else 0.0

    def calls(self, name: str) -> int:
        cell = self._sections.get(name)
        return cell[1] if cell is not None else 0

    def __bool__(self) -> bool:
        return bool(self._sections)

    def snapshot(self, total_wall_s: Optional[float] = None) -> Dict[str, Dict]:
        """JSON-friendly per-section summary.

        With ``total_wall_s`` given, each section also carries ``pct``
        (percent of total run wall time — sections nest, so these do
        not sum to 100).
        """
        out: Dict[str, Dict] = {}
        for name in sorted(self._sections):
            secs, calls = self._sections[name]
            entry: Dict[str, object] = {"s": secs, "calls": calls}
            if total_wall_s and total_wall_s > 0:
                entry["pct"] = 100.0 * secs / total_wall_s
            out[name] = entry
        return out

    def wrap_tracer(self, tracer: Optional[Tracer]) -> Optional[Tracer]:
        """Wrap an enabled tracer so its emit cost lands in ``tracer.emit``."""
        if tracer is None or not getattr(tracer, "enabled", False):
            return tracer
        return TracerOverheadProxy(tracer, self)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{n}={v[0]:.3f}s/{v[1]}" for n, v in sorted(self._sections.items())
        )
        return f"HostProfiler({parts})"


class TracerOverheadProxy(Tracer):
    """Forwards every emit to an inner tracer, timing it.

    Installed by the run driver between the machine and a user-supplied
    tracer when a :class:`HostProfiler` is attached, so tracing cost
    shows up as its own section instead of silently inflating the
    component sections.  The caller keeps its reference to the *inner*
    tracer (for ``events()`` / ``metrics``); only the machine sees the
    proxy.
    """

    __slots__ = ("inner", "prof")

    enabled = True

    def __init__(self, inner: Tracer, prof: HostProfiler) -> None:
        super().__init__()
        self.inner = inner
        self.prof = prof

    def wants(self, category: str) -> bool:
        return self.inner.wants(category)

    def emit(self, kind, tu=0, a=0, b=0, dur=0.0, tag="", cycle=None):
        t0 = time.perf_counter()
        self.inner.emit(
            kind, tu, a, b, dur, tag,
            self.now if cycle is None else cycle,
        )
        self.prof.add("tracer.emit", time.perf_counter() - t0)

    def events(self):
        return self.inner.events()
