"""Run the repository benchmark, check the program's outputs, print the metrics.

    python3 bench/run.py --workload campaign --seed 7 --seconds 40 --trace 0
    python3 bench/run.py --seed 2003 --out set.json            # every workload
    python3 bench/run.py --seed 2003 --trace --out layers.json # per-layer run

Each sample runs in a fresh interpreter (``bench/sample.py``), one at a
time, serially inside (``jobs=1``), with its own result cache and perf
ledger.  Samples of the selected workloads are taken round-robin until
each workload has used ``--seconds`` of sample time (at least
``MIN_SAMPLES`` each), so drift on a shared machine hits every workload
alike.  Every metric is the median over the samples.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` takes one untraced and one traced sample per workload and
reports the per-layer metrics, writing the traced spans as Chrome-trace
JSON.  Either way the outputs are checked: failed cells, samples whose
deterministic outputs differ, campaign cells that differ from the oracle
(the reference implementation), and attribution that breaks lifetime
conservation each count as one failed operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from spec import ROOT, load_spec, metrics_by_name, percentile, summarize

BENCH_DIR = Path(__file__).resolve().parent
SAMPLE = BENCH_DIR / "sample.py"
WORKLOADS = ("campaign", "cold-start", "explain")
#: The seed the claim bands were set on; 7 and 42 are held out.
DEFAULT_SEED = 2003
MIN_SAMPLES = 2
#: Set-up is short and noisy, so set-up-only starts top its samples up.
MIN_SETUPS = 5
#: Process time a workload may take beyond ``--seconds`` (set-up-only
#: starts, the traced sample, the parity check, a slow last sample).
SLACK_S = 130.0


class Children:
    """Starts ``bench/sample.py`` processes, one at a time, under a deadline."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.n = 0
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        (workdir / "tmp").mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(workdir / "tmp")
        # Keep git (the perf ledger stamps the commit) inside the checkout.
        env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
        self.env = env

    def run(self, *argv: str) -> Tuple[Optional[Dict], float, str]:
        """``(result, spawn time, error)``; ``result`` is None on failure."""
        self.n += 1
        work = self.workdir / f"c{self.n}"
        out = self.workdir / f"c{self.n}.json"
        cmd = [sys.executable, str(SAMPLE), *argv,
               "--workdir", str(work), "--out", str(out)]
        timeout = max(1.0, self.deadline - time.monotonic())
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=timeout,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return None, t_spawn, f"{' '.join(argv)}: timed out after {timeout:.0f}s"
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0 or not out.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return None, t_spawn, f"{' '.join(argv)}: exit {proc.returncode}: {tail[0]}"
        result = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        return result, t_spawn, ""


def e2e_metrics(sample: Dict, t_spawn: float) -> Dict[str, float]:
    """The end-to-end metrics of one sample."""
    wall = sample["t_end"] - sample["t_entry"]
    walls = sample["cell_walls_s"] or [wall]
    model = sample["outputs"]["model"]
    return {
        "setup_s": sample["t_entry"] - t_spawn,
        "wall_s": wall,
        "sim_kips": model["instructions"] / wall / 1e3,
        "cell_p50_ms": percentile(walls, 50) * 1e3,
        "cell_p90_ms": percentile(walls, 90) * 1e3,
        "peak_rss_mb": sample["rss_kb"] / 1024.0,
    }


def tally(samples: Dict[str, List[Dict]], oracle: Optional[Dict] = None,
          crashes: Sequence[str] = ()) -> Tuple[int, List[str]]:
    """``(attempted, failures)`` over every operation and check of a run.

    Operations are the samples' cells and their own checks; on top come
    one determinism check per extra sample of a workload, one parity
    check per campaign cell re-run on the oracle, and one per process
    that crashed.
    """
    attempted = len(crashes)
    failures = list(crashes)
    for workload, runs in samples.items():
        for i, sample in enumerate(runs):
            attempted += sample["attempted"]
            failures.extend(f"{workload}: {f}" for f in sample["failures"])
            if i:
                attempted += 1
                if sample["outputs"] != runs[0]["outputs"]:
                    differ = sorted(k for k in sample["outputs"]
                                    if sample["outputs"][k] != runs[0]["outputs"].get(k))
                    failures.append(f"{workload}: sample {i} outputs differ "
                                    f"from sample 0 in {differ}")
    if oracle is not None:
        failures.extend(f"parity: {f}" for f in oracle["failures"])
        fast = samples["campaign"][0]["outputs"]["parity"]
        for cell in sorted(fast.keys() | oracle["parity"].keys()):
            attempted += 1
            if fast.get(cell) != oracle["parity"].get(cell):
                failures.append(f"parity: {cell} differs from the oracle")
    return attempted, failures


def measure(workloads: Sequence[str], seed: int, seconds: float, trace: bool,
            workdir: Path, trace_dir: Path) -> Dict:
    """Take every sample of a run, check the outputs, return the report."""
    kids = Children(workdir,
                    time.monotonic() + (seconds + SLACK_S) * len(workloads))
    samples: Dict[str, List[Dict]] = {w: [] for w in workloads}
    setups: Dict[str, List[float]] = {w: [] for w in workloads}
    per_sample: Dict[str, List[Dict[str, float]]] = {w: [] for w in workloads}
    used = {w: 0.0 for w in workloads}
    crashes: List[str] = []

    def take(workload: str, *extra: str) -> Optional[Dict]:
        sample, t_spawn, error = kids.run("--workload", workload,
                                          "--seed", str(seed), *extra)
        used[workload] += time.monotonic() - t_spawn
        if sample is None:
            crashes.append(f"{workload}: {error}")
            return None
        if "--setup-only" in extra:
            setups[workload].append(sample["t_entry"] - t_spawn)
            return sample
        samples[workload].append(sample)
        metrics = e2e_metrics(sample, t_spawn)
        if "--trace" not in extra:
            per_sample[workload].append(metrics)
            setups[workload].append(metrics["setup_s"])
        return sample

    active = list(workloads)
    while active:
        for w in list(active):
            ok = take(w) is not None
            n = len(samples[w])
            if (not ok or trace
                    or (n >= MIN_SAMPLES and used[w] * (n + 1) / n > seconds)):
                active.remove(w)
    traced: Dict[str, Dict] = {}
    for w in workloads:
        if trace and samples[w]:
            trace_dir.mkdir(parents=True, exist_ok=True)
            sample = take(w, "--trace", str(trace_dir / f"{w}.trace.json"))
            if sample is not None:
                traced[w] = sample
        while not trace and samples[w] and len(setups[w]) < MIN_SETUPS:
            if take(w, "--setup-only") is None:
                break
    oracle = None
    if "campaign" in workloads and samples["campaign"]:
        oracle, _, error = kids.run("--parity", "--seed", str(seed))
        if oracle is None:
            crashes.append(f"parity: {error}")
    attempted, failures = tally(samples, oracle, crashes)
    report = {"workloads": {}, "attempted": attempted,
              "failed": len(failures), "failures": failures}
    for w in workloads:
        if not per_sample[w] or (trace and w not in traced):
            continue
        entry = {"samples": len(samples[w]),
                 "claims_in_band": samples[w][0].get("claims_in_band", 0)}
        if trace:
            entry["layers"] = layer_report(samples[w][0], traced[w])
        else:
            metrics = {name: summarize([m[name] for m in per_sample[w]])
                       for name in per_sample[w][0]}
            metrics["setup_s"] = summarize(setups[w])
            entry["metrics"] = metrics
        report["workloads"][w] = entry
    return report


def layer_report(untraced: Dict, traced: Dict) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one workload from its traced sample."""
    out = dict(traced["layers"])
    for field, value in traced["outputs"]["model"].items():
        out[f"model.{field}"] = value
    out["claims_in_band"] = traced.get("claims_in_band", 0)
    wall = untraced["t_end"] - untraced["t_entry"]
    traced_wall = traced["t_end"] - traced["t_entry"]
    out["trace.overhead_pct"] = 100.0 * (traced_wall / wall - 1.0)
    return out


def result_line(report: Dict, spec: Dict, trace: bool) -> Dict:
    """The final JSON object; metrics in ``BENCHMARK.json`` order."""
    kind = "per_layer" if trace else "end_to_end"
    declared = metrics_by_name(spec, kind)
    per_workload = {}
    for w, entry in report["workloads"].items():
        values = entry["layers"] if trace else {
            name: m["value"] for name, m in entry["metrics"].items()}
        per_workload[w] = {name: {"value": values[name], "unit": m["unit"]}
                           for name, m in declared.items()}
    metrics = (next(iter(per_workload.values()))
               if len(per_workload) == 1 else per_workload)
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_table(report: Dict, spec: Dict, trace: bool) -> None:
    kind = "per_layer" if trace else "end_to_end"
    for w, entry in report["workloads"].items():
        print(f"== {w}: {entry['samples']} sample(s), "
              f"claims in band {entry['claims_in_band']}")
        for name, m in metrics_by_name(spec, kind).items():
            if trace:
                value = entry["layers"].get(name)
                shown = "absent" if value is None else f"{value:.6g}"
                print(f"  {name:<42} {shown:>14} {m['unit']}")
            else:
                s = entry["metrics"][name]
                print(f"  {name:<14} {s['value']:>12.6g} {m['unit']:<9} "
                      f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the benchmark workloads and check their outputs.")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="sample time per workload (default 40)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: the traced per-layer run")
    ap.add_argument("--out", type=Path,
                    help="write the full report (quartiles, samples) here")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the running sample instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    workloads = [w for w in WORKLOADS if w in (args.workload or WORKLOADS)]
    trace = bool(args.trace)
    if args.out is not None:
        trace_dir = args.out.resolve().parent / f"{args.out.stem}.traces"
    else:
        trace_dir = ROOT / ".bench_traces"
    workdir = ROOT / ".bench_run" / str(os.getpid())
    try:
        report = measure(workloads, args.seed, args.seconds, trace,
                         workdir, trace_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    if len(report["workloads"]) != len(workloads):
        for failure in report["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        print("bench: no successful sample of some workload", file=sys.stderr)
        return 1
    report.update(seed=args.seed, seconds=args.seconds, trace=int(trace),
                  nproc=os.cpu_count(), python=sys.version.split()[0])
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n",
                            encoding="utf-8")
    print_table(report, spec, trace)
    print(json.dumps(result_line(report, spec, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
