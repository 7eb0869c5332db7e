"""Trace export: Chrome trace-event JSON (Perfetto) and JSONL dumps.

:func:`chrome_trace` converts a recorded event stream into the Chrome
trace-event format (the JSON array flavour, wrapped in an object), which
loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``:

* one **track per thread unit** (``pid`` 1, ``tid`` = TU id) carrying
  iteration spans and the instant events that happened on that TU;
* a **regions track** carrying one span per region invocation;
* optional **counter tracks** built from an interval-metrics series
  (IPC, L1 miss rate, WEC hit rate, wrong-load fraction);
* optional **attribution counter tracks** built from an
  :meth:`~repro.obs.attrib.AttributionCollector.series` mapping
  (speculative fills, useful speculative uses, pollution misses per
  window).

Simulated cycles are written 1:1 as trace microseconds (``ts``/``dur``),
so "1 us" in the viewer reads as one cycle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from .events import (
    Event,
    ITER_SPAN,
    KIND_CATEGORY,
    KIND_NAMES,
    REGION_BEGIN,
    REGION_END,
    event_to_dict,
)

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]

#: ``pid`` used for every simulator track.
TRACE_PID = 1
#: ``tid`` of the regions track (far above any plausible TU count).
REGIONS_TID = 10_000

#: Counter-series keys exported from an interval series, with the
#: human-readable track names they become.
_COUNTER_TRACKS = (
    ("ipc", "IPC"),
    ("l1_miss_rate", "L1 miss rate"),
    ("wec_hit_rate", "WEC hit rate"),
    ("wrong_load_fraction", "wrong-load fraction"),
)

#: Counter-series keys exported from an attribution series
#: (:meth:`AttributionCollector.series`), same scheme.
_ATTRIB_TRACKS = (
    ("spec_fills", "speculative fills"),
    ("useful_spec_uses", "useful spec uses"),
    ("pollution_misses", "pollution misses"),
)


def _metadata(tus: Iterable[int]) -> List[Dict]:
    """Process/thread naming records for the viewer."""
    records: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "args": {"name": "repro superthreaded machine"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": REGIONS_TID,
            "args": {"name": "regions"},
        },
    ]
    for tu in sorted(set(tus)):
        records.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tu,
                "args": {"name": f"TU {tu}"},
            }
        )
        records.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tu,
                "args": {"sort_index": tu},
            }
        )
    return records


def chrome_trace(
    events: Iterable[Event],
    interval_series: Optional[Dict] = None,
    label: str = "",
    attrib_series: Optional[Dict] = None,
) -> Dict:
    """Build a Chrome trace-event document from an event stream.

    ``interval_series`` (a :meth:`IntervalMetrics.series` mapping) adds
    counter tracks; ``attrib_series`` (an
    :meth:`AttributionCollector.series` mapping) adds the
    provenance-attribution counters; ``label`` is stored in
    ``otherData`` for provenance.
    """
    events = list(events)
    trace_events: List[Dict] = _metadata(
        ev.tu for ev in events if ev.kind not in (REGION_BEGIN, REGION_END)
    )
    for ev in events:
        kind = ev.kind
        name = KIND_NAMES.get(kind, str(kind))
        cat = KIND_CATEGORY.get(kind, "?")
        if kind == ITER_SPAN:
            trace_events.append(
                {
                    "name": f"iter {ev.a}",
                    "cat": cat,
                    "ph": "X",
                    "pid": TRACE_PID,
                    "tid": ev.tu,
                    "ts": ev.cycle,
                    "dur": ev.dur,
                    "args": {"iteration": ev.a, "instructions": ev.b},
                }
            )
        elif kind == REGION_END:
            trace_events.append(
                {
                    "name": ev.tag or "region",
                    "cat": cat,
                    "ph": "X",
                    "pid": TRACE_PID,
                    "tid": REGIONS_TID,
                    "ts": ev.cycle - ev.dur,
                    "dur": ev.dur,
                    "args": {"invocation": ev.a, "iterations": ev.b},
                }
            )
        elif kind == REGION_BEGIN:
            continue  # its REGION_END carries the full span
        else:
            record: Dict = {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "pid": TRACE_PID,
                "tid": ev.tu,
                "ts": ev.cycle,
                "args": {"a": ev.a, "b": ev.b},
            }
            if ev.tag:
                record["args"]["tag"] = ev.tag
            trace_events.append(record)

    if interval_series:
        starts = interval_series.get("window_start", [])
        for key, track in _COUNTER_TRACKS:
            values = interval_series.get(key, [])
            for ts, value in zip(starts, values):
                trace_events.append(
                    {
                        "name": track,
                        "cat": "metrics",
                        "ph": "C",
                        "pid": TRACE_PID,
                        "ts": ts,
                        "args": {track: round(value, 6)},
                    }
                )

    if attrib_series:
        starts = attrib_series.get("window_start", [])
        for key, track in _ATTRIB_TRACKS:
            values = attrib_series.get(key, [])
            for ts, value in zip(starts, values):
                trace_events.append(
                    {
                        "name": track,
                        "cat": "attrib",
                        "ph": "C",
                        "pid": TRACE_PID,
                        "ts": ts,
                        "args": {track: round(value, 6)},
                    }
                )

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "label": label,
            "clock": "1 trace us = 1 simulated cycle",
            "n_events": len(events),
        },
    }


def write_chrome_trace(
    events: Iterable[Event],
    path: Union[str, Path],
    interval_series: Optional[Dict] = None,
    label: str = "",
    attrib_series: Optional[Dict] = None,
) -> Path:
    """Write :func:`chrome_trace` output to ``path``; returns the path."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            chrome_trace(events, interval_series, label,
                         attrib_series=attrib_series),
            fh,
        )
    return path


def write_jsonl(events: Iterable[Event], path: Union[str, Path]) -> Path:
    """Dump events as JSON Lines (one readable record per line)."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(event_to_dict(ev)))
            fh.write("\n")
    return path
