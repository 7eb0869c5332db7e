"""The benchmark's declared metrics (``BENCHMARK.json``) and summary statistics."""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Metric and workload names: a letter or digit, then letters, digits,
#: ``_``, ``.`` or ``-``; at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_spec(path: Path = SPEC_PATH) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def metrics_by_name(spec: Dict, kind: str) -> Dict[str, Dict]:
    """``{name: entry}`` of the ``end_to_end`` or ``per_layer`` list."""
    return {m["name"]: m for m in spec[kind]}


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(values: Sequence[float]) -> Dict:
    """Median, quartiles and sample count of one metric's samples."""
    q1, _, q3 = quartiles(values)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": list(values)}


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile, interpolated inside the data's range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
