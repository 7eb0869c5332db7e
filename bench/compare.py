"""Compare two benchmark reports metric by metric.

    python3 bench/compare.py parent.json change.json

Both files are ``bench/run.py --out`` reports of end-to-end runs.  For
every (end-to-end metric, workload) pair in both, the table shows each
side's median, quartiles and sample count, and a verdict:

``better``      the change wins at least nine tenths of all (parent,
                change) sample pairs, ties counting for neither, and the
                medians differ by more than the parent's quartile spread;
``unresolved``  either side's quartile spread, as a share of its median,
                exceeds the metric's bound, unless every sample of the
                change reads better than every sample of the parent;
``worse``       the change's median is worse than the parent's by more
                than the bound;
``unchanged``   otherwise.

Bounds come from ``BENCHMARK.json``.  Exits 1 if any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from spec import load_spec, metrics_by_name

WIN_SHARE = 0.9


def verdict(parent: Dict, change: Dict, better: str, bound: float) -> str:
    """The verdict for one metric; ``parent``/``change`` are summaries."""
    sign = 1.0 if better == "higher" else -1.0
    a, b = parent["values"], change["values"]
    wins = sum(sign * (y - x) > 0 for x in a for y in b)
    spread_a = (parent["q3"] - parent["q1"]) / parent["value"]
    spread_b = (change["q3"] - change["q1"]) / change["value"]
    if (wins >= WIN_SHARE * len(a) * len(b)
            and abs(change["value"] - parent["value"])
            > parent["q3"] - parent["q1"]):
        return "better"
    if max(spread_a, spread_b) > bound and wins < len(a) * len(b):
        return "unresolved"
    worse_by = sign * (parent["value"] - change["value"]) / parent["value"]
    return "worse" if worse_by > bound else "unchanged"


def compare(parent: Dict, change: Dict, spec: Dict) -> List[Dict]:
    rows = []
    for workload, entry in parent["workloads"].items():
        other: Optional[Dict] = change["workloads"].get(workload)
        if other is None or "metrics" not in entry or "metrics" not in other:
            continue
        for name, m in metrics_by_name(spec, "end_to_end").items():
            a, b = entry["metrics"][name], other["metrics"][name]
            rows.append({
                "workload": workload, "metric": name, "unit": m["unit"],
                "parent": a, "change": b,
                "delta_pct": 100.0 * (b["value"] - a["value"]) / a["value"],
                "verdict": verdict(a, b, m["better"], m["bound"]),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    docs = [json.loads(p.read_text(encoding="utf-8"))
            for p in (args.parent, args.change)]
    rows = compare(docs[0], docs[1], load_spec())
    if not rows:
        print("compare: the reports share no end-to-end metrics", file=sys.stderr)
        return 2

    def side(s: Dict) -> str:
        return f"{s['value']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"

    print(f"{'workload':<11} {'metric':<12} {'parent':<32} {'change':<32} "
          f"{'delta':>8}  verdict")
    for r in rows:
        print(f"{r['workload']:<11} {r['metric']:<12} {side(r['parent']):<32} "
              f"{side(r['change']):<32} {r['delta_pct']:>+7.2f}%  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
