"""Layer spans for the benchmark's traced run.

The benchmark times each layer from outside the program: :func:`install`
wraps the functions named in :data:`LAYERS` (dotted ``module:qualname``
targets) so that every call into a layer records a span — name, start,
end, parent span and the cell being simulated.  Spans live in flat
arrays until the run ends; :func:`layer_metrics` then turns them into
per-layer self times and counts, and :func:`write_chrome_trace` exports
them for Perfetto.

A target that no longer exists (renamed or deleted by a later change)
marks its layer *absent*: the layer's metrics are reported as ``None``
and the run carries on.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Name of the span the benchmark opens around the workload's entry call.
ROOT = "bench.workload"

#: Spans shorter than this are aggregated but left out of the Chrome
#: trace; per-iteration layers would otherwise write ~10^6 events.
CHROME_MIN_US = 100.0
CHROME_MAX_EVENTS = 200_000


@dataclass(frozen=True)
class Layer:
    """One layer: the functions whose calls are its spans, and its metrics.

    ``calls`` names the metric counting the layer's spans (``None``: not
    reported).  ``hit`` is called with a call's arguments before the
    call runs and says whether the layer's memo already holds the
    answer (reported as ``<name>.hit_ratio``).  ``count`` is called with
    the arguments and the result and returns ``{metric: n}`` increments;
    ``counts`` lists the metrics it reports.
    """

    name: str
    targets: Tuple[str, ...]
    calls: Optional[str] = None
    hit: Optional[Callable[..., bool]] = None
    count: Optional[Callable[[tuple, object], Dict[str, int]]] = None
    counts: Tuple[str, ...] = ()
    #: Each call starts a new simulated cell (span ``cell`` ids).
    starts_cell: bool = False

    def metric_names(self) -> List[str]:
        names = [f"{self.name}.self_pct"]
        if self.calls:
            names.append(f"{self.name}.{self.calls}")
        if self.hit is not None:
            names.append(f"{self.name}.hit_ratio")
        names.extend(self.counts)
        return names


def _trace_memo_hit(region, _streams, seed, index) -> bool:
    return index in region.traces.get(seed, ())


def _wrong_path_memo_hit(region, _streams, seed, _trace, branch_idx, index,
                         _future) -> bool:
    return (index, branch_idx) in region.wp_addrs.get(seed, ())


def _branch_stream_use(args: tuple, _result) -> Dict[str, int]:
    machine = args[0]
    if machine.br_replay is not None:
        return {"sim.fast.engine.run.replay": 1}
    if machine.br_record is not None:
        return {"sim.fast.engine.run.record": 1}
    return {}


def _cell_outcome(_args: tuple, result) -> Dict[str, int]:
    ok = result[0] == "ok"
    return {"sim.executor.cells.executed" if ok
            else "sim.executor.cells.failed": 1}


_FAST = "repro.sim.fast"
_EXEC = "repro.sim.executor"

#: Every traced layer, grouped by the module it wraps.
LAYERS: Tuple[Layer, ...] = (
    Layer("workloads.build",
          ("repro.workloads.benchmarks:build_benchmark",), calls="calls"),
    Layer("sim.driver.run_program",
          ("repro.sim.driver:run_program",), calls="calls"),
    Layer("sim.fast.compile.region",
          (f"{_FAST}.compile:CompiledRegion.__init__",), calls="misses"),
    Layer("sim.fast.compile.trace",
          (f"{_FAST}.compile:CompiledRegion.trace",), calls="calls",
          hit=_trace_memo_hit),
    Layer("sim.fast.compile.wrong_path",
          (f"{_FAST}.compile:CompiledRegion.wrong_path_addrs",), calls="calls",
          hit=_wrong_path_memo_hit),
    Layer("sim.fast.engine.run",
          (f"{_FAST}.engine:run_program_fast",),
          count=lambda _a, r: {"sim.fast.engine.run.instructions":
                               r.instructions}),
    Layer("sim.fast.engine.parallel",
          (f"{_FAST}.engine:_FastMachine.run_parallel_region",),
          count=lambda _a, r: {"sim.fast.engine.parallel.iterations": r[1]},
          counts=("sim.fast.engine.parallel.iterations",)),
    Layer("sim.fast.engine.sequential",
          (f"{_FAST}.engine:_FastMachine.run_sequential_region",),
          count=lambda _a, r: {"sim.fast.engine.sequential.chunks": r[1]},
          counts=("sim.fast.engine.sequential.chunks",)),
    Layer("sim.fast.engine.wrong_thread",
          (f"{_FAST}.engine:_FastTU.run_wrong_thread",),
          count=lambda _a, r: {"sim.fast.engine.wrong_thread.loads": r},
          counts=("sim.fast.engine.wrong_thread.loads",)),
    Layer("sim.fast.engine.stats",
          (f"{_FAST}.engine:_FastMachine.collect_stats",),
          count=_branch_stream_use,
          counts=("sim.fast.engine.run.record", "sim.fast.engine.run.replay")),
    Layer("sta.scheduler.compose",
          ("repro.sta.scheduler:compose_pipeline_step",), calls="calls"),
    Layer("sta.scheduler.parallel",
          ("repro.sta.scheduler:Scheduler.run_parallel_region",)),
    Layer("sta.scheduler.sequential",
          ("repro.sta.scheduler:Scheduler.run_sequential_region",)),
    Layer("workloads.tracegen",
          tuple(f"repro.workloads.tracegen:TraceGenerator.{m}" for m in (
              "iteration_trace", "chunk_trace", "wrong_path_addrs",
              "wrong_thread_addrs", "ifetch_blocks")),
          calls="calls"),
    Layer("core.thread_unit.execute",
          ("repro.core.thread_unit:ThreadUnit.execute_iteration",
           "repro.core.thread_unit:ThreadUnit.execute_sequential_chunk")),
    Layer("core.thread_unit.wrong_thread",
          ("repro.core.thread_unit:ThreadUnit.run_wrong_thread",)),
    Layer("obs.attrib.summary",
          ("repro.obs.attrib:AttributionCollector.summary",)),
    Layer("sim.executor.cell", (f"{_EXEC}:_execute_cell",),
          count=_cell_outcome, starts_cell=True,
          counts=("sim.executor.cells.executed", "sim.executor.cells.failed")),
    Layer("sim.executor.cache_get", (f"{_EXEC}:DiskCache.get",)),
    Layer("sim.executor.cache_put", (f"{_EXEC}:DiskCache.put",)),
    Layer("sim.executor.codec", ("repro.sim.results:SimResult.to_dict",
                                 "repro.sim.results:SimResult.from_dict")),
    Layer("sim.executor.cell_key", (f"{_EXEC}:cell_key",)),
    Layer("sim.executor.run_cells", (f"{_EXEC}:run_cells",)),
    Layer("obs.ledger.append",
          ("repro.obs.ledger:Ledger.append",), calls="calls"),
    Layer("obs.fidelity.sections",
          ("repro.obs.fidelity:campaign_sections",)),
    Layer("obs.fidelity.evaluate",
          ("repro.obs.fidelity:evaluate_claims",)),
)

#: Metrics derived from several layers' spans (see :func:`layer_metrics`).
DERIVED = (
    "sim.executor.warmup.runs",
    "sim.executor.warmup.pct",
    "sim.fast.engine.kips",
    "trace.coverage_pct",
    "trace.wall_s",
)


def metric_names(layers: Sequence[Layer] = LAYERS) -> List[str]:
    """Every metric :func:`layer_metrics` reports, in a stable order."""
    names: List[str] = []
    for layer in layers:
        names.extend(layer.metric_names())
    return names + list(DERIVED)


class Recorder:
    """Spans in flat arrays, in the order they were opened.

    Span ``i`` has name ``names[name_ids[i]]``, runs from ``starts[i]``
    to ``ends[i]`` (``time.perf_counter`` seconds), was opened inside
    span ``parents[i]`` (``-1``: none) and belongs to cell ``cells[i]``
    (``-1``: before the first cell).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.cells = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = [-1]
        self.cell = -1
        self.cell_labels: List[str] = []
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_cell(self, label: str) -> None:
        self.cell = len(self.cell_labels)
        self.cell_labels.append(label)

    def open(self, nid: int) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1])
        self.cells.append(self.cell)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def __len__(self) -> int:
        return len(self.name_ids)


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread's call stack, so children nest inside
    their parent and never overlap each other.
    """
    self_s = [e - s for s, e in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            self_s[parent] -= ends[i] - starts[i]
    return self_s


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


def _resolve(path: str):
    """``(owner, attribute, raw value)`` for a ``module:qualname`` target."""
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return owner, attr, vars(klass)[attr]
        raise AttributeError(f"{owner.__name__} has no attribute {attr!r}")
    return owner, attr, getattr(owner, attr)


def _wrap(fn: Callable, layer: Layer, rec: Recorder, broken: set) -> Callable:
    nid = rec.name_id(layer.name)
    counts = rec.counts
    hit, count = layer.hit, layer.count
    hits_key, probes_key = f"{layer.name}.hits", f"{layer.name}.probes"

    def wrapper(*args, **kwargs):
        if hit is not None and layer.name not in broken:
            try:
                counts[hits_key] += hit(*args, **kwargs)
                counts[probes_key] += 1
            # The probe reads the program's private memo layout; after a
            # refactor it may no longer fit.  Report the ratio as absent.
            except (AttributeError, TypeError, KeyError):
                broken.add(layer.name)
        if layer.starts_cell:
            rec.begin_cell(f"{args[0]}/{getattr(args[1], 'name', '?')}")
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count is not None and layer.name not in broken:
            try:
                counts.update(count(args, result))
            except (AttributeError, TypeError, KeyError, IndexError):
                broken.add(layer.name)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Installation:
    """Wrappers in place; :meth:`uninstall` puts the originals back."""

    def __init__(self) -> None:
        self.absent: Dict[str, str] = {}   # layer -> why
        self.broken: set = set()           # layers whose hit/count hook failed
        self._undo: List[Tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(rec: Recorder, layers: Sequence[Layer] = LAYERS) -> Installation:
    """Wrap every target of ``layers``; missing targets mark layers absent.

    A module-level function is rebound in every loaded ``repro`` module
    that imported it by name, so callers that did ``from x import f``
    see the wrapper too.
    """
    inst = Installation()
    for layer in layers:
        resolved = []
        for path in layer.targets:
            try:
                resolved.append(_resolve(path))
            except (ImportError, AttributeError) as exc:
                inst.absent[layer.name] = f"{path}: {exc}"
                break
        if layer.name in inst.absent:
            continue
        for owner, attr, raw in resolved:
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(_wrap(raw.__func__, layer, rec, inst.broken))
            else:
                new = _wrap(raw, layer, rec, inst.broken)
            if isinstance(owner, type):
                inst._undo.append((owner, attr, vars(owner).get(attr, raw)))
                setattr(owner, attr, new)
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is raw):
                    inst._undo.append((module, attr, raw))
                    setattr(module, attr, new)
    return inst


# ---------------------------------------------------------------------------
# From spans to metrics
# ---------------------------------------------------------------------------


def layer_metrics(rec: Recorder, inst: Installation,
                  layers: Sequence[Layer] = LAYERS) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced run (``None`` for absent layers).

    Times are shares of the traced wall — the :data:`ROOT` span around
    the workload's entry call — so they read the same whatever the
    tracing overhead stretched the run to.
    """
    self_s = self_times(rec.starts, rec.ends, rec.parents)
    root_nid = rec._ids.get(ROOT)
    roots = [i for i, n in enumerate(rec.name_ids) if n == root_nid]
    if not roots:
        raise ValueError(f"no {ROOT!r} span recorded")
    wall = sum(rec.ends[i] - rec.starts[i] for i in roots)
    by_name_self: Counter = Counter()
    by_name_total: Counter = Counter()
    by_name_calls: Counter = Counter()
    for i, nid in enumerate(rec.name_ids):
        by_name_self[nid] += self_s[i]
        by_name_total[nid] += rec.ends[i] - rec.starts[i]
        by_name_calls[nid] += 1

    def agg(table: Counter, name: str) -> float:
        nid = rec._ids.get(name)
        return table[nid] if nid is not None else 0

    out: Dict[str, Optional[float]] = {}
    for layer in layers:
        names = layer.metric_names()
        if layer.name in inst.absent:
            out.update(dict.fromkeys(names))
            continue
        out[f"{layer.name}.self_pct"] = 100.0 * agg(by_name_self, layer.name) / wall
        if layer.calls:
            out[f"{layer.name}.{layer.calls}"] = agg(by_name_calls, layer.name)
        if layer.hit is not None:
            probes = rec.counts[f"{layer.name}.probes"]
            out[f"{layer.name}.hit_ratio"] = (
                None if layer.name in inst.broken
                else rec.counts[f"{layer.name}.hits"] / probes if probes
                else 0.0)
        for metric in layer.counts:
            out[metric] = (None if layer.name in inst.broken
                           else rec.counts[metric])

    # Warm-up: simulations the executor runs itself, before the cells.
    run_nid = rec._ids.get("sim.driver.run_program")
    cells_nid = rec._ids.get("sim.executor.run_cells")
    warm = [i for i, nid in enumerate(rec.name_ids)
            if nid == run_nid and rec.parents[i] >= 0
            and rec.name_ids[rec.parents[i]] == cells_nid]
    warm_known = not {"sim.driver.run_program",
                      "sim.executor.run_cells"} & set(inst.absent)
    out["sim.executor.warmup.runs"] = len(warm) if warm_known else None
    out["sim.executor.warmup.pct"] = (
        100.0 * sum(rec.ends[i] - rec.starts[i] for i in warm) / wall
        if warm_known else None)
    fast_s = agg(by_name_total, "sim.fast.engine.run")
    out["sim.fast.engine.kips"] = (
        None if "sim.fast.engine.run" in inst.absent
        else rec.counts["sim.fast.engine.run.instructions"] / fast_s / 1e3
        if fast_s else 0.0)
    root_self = sum(self_s[i] for i in roots)
    out["trace.coverage_pct"] = 100.0 * (wall - root_self) / wall
    out["trace.wall_s"] = wall
    return out


def write_chrome_trace(rec: Recorder, path, workload: str) -> int:
    """Write the spans as Chrome-trace JSON (open in ui.perfetto.dev).

    Returns the number of events written; spans under
    :data:`CHROME_MIN_US` are left out (they still count in the metrics).
    """
    t0 = rec.starts[0] if len(rec) else 0.0
    events = []
    for i, nid in enumerate(rec.name_ids):
        dur_us = (rec.ends[i] - rec.starts[i]) * 1e6
        if dur_us < CHROME_MIN_US:
            continue
        cell = rec.cells[i]
        events.append({
            "name": rec.names[nid], "ph": "X", "pid": 1, "tid": 1,
            "ts": round((rec.starts[i] - t0) * 1e6, 3),
            "dur": round(dur_us, 3),
            "args": {"cell": rec.cell_labels[cell] if cell >= 0 else None},
        })
        if len(events) >= CHROME_MAX_EVENTS:
            break
    doc = {
        "traceEvents": [{"name": "process_name", "ph": "M", "pid": 1,
                         "args": {"name": f"bench {workload}"}}] + events,
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(events)
