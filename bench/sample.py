"""One sample of a benchmark workload, run in a fresh interpreter.

``bench/run.py`` starts this script once per sample, because the fast
engine's memos (compiled regions, traces, branch streams, built
programs) are process-global: a second sample in the same process would
start memo-warm in a way no user's first run does.

    python bench/sample.py --workload campaign --seed 2003 --workdir D --out R.json
    python bench/sample.py --workload explain ... --trace spans.json   # traced
    python bench/sample.py --workload cold-start ... --setup-only      # set-up only
    python bench/sample.py --parity --seed 2003 --workdir D --out R.json

Each workload is a function ``(seed, workdir, scale, ...) -> run`` that
does the set-up (imports, inputs) and returns ``run(recorder)``, which
calls the program's public entry point once and returns the sample: the
monotonic-clock stamps around the entry call, per-cell walls, simulated
instruction count, peak RSS, and the deterministic outputs the checks
compare.  ``recorder`` is a :class:`spans.Recorder` in the traced run
and ``None`` otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Optional

import spans

CAMPAIGN_SCALE = 2e-4
COLD_START_SCALE = 2e-3
EXPLAIN_SCALE = 2e-4

#: Campaign cells the parity check re-runs on the oracle (× 6 benchmarks).
PARITY_LABELS = ("wth-wp-wec", "nlp")

#: Simulated-machine counters summed over a workload's results.
MODEL_FIELDS = ("instructions", "l1_misses", "wrong_loads",
                "useful_wrong_hits", "l2_misses")


@contextmanager
def _environ(**values):
    saved = {key: os.environ.get(key) for key in values}
    os.environ.update({key: str(value) for key, value in values.items()})
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@contextmanager
def _timed(rec: Optional[spans.Recorder]):
    """Stamp the entry call; in the traced run also open the root span."""
    t = SimpleNamespace()
    t.entry = time.monotonic()
    with rec.span(spans.ROOT) if rec is not None else nullcontext():
        yield t
    t.end = time.monotonic()
    t.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def digest(result) -> str:
    """Stable hash of a ``SimResult``'s full dict form."""
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _sample(t, cell_walls: List[float], results: Iterable, attempted: int,
            failures: List[str], **outputs) -> Dict:
    results = list(results)
    model = {f: sum(getattr(r, f) for r in results) for f in MODEL_FIELDS}
    return {
        "t_entry": t.entry,
        "t_end": t.end,
        "rss_kb": t.rss_kb,
        "cell_walls_s": cell_walls,
        "attempted": attempted,
        "failures": failures,
        # Deterministic for a seed: must repeat exactly across samples.
        "outputs": {"model": model, **outputs},
    }


def _campaign_axis():
    from repro.obs.fidelity import campaign_sections

    axis = {}
    for configs in campaign_sections().values():
        for label, config in configs.items():
            axis.setdefault(label, config)
    return axis


def campaign(seed: int, workdir: Path, scale: float = CAMPAIGN_SCALE) -> Callable:
    """The fidelity campaign: 51 labels × 6 benchmarks on the fast engine,
    with a fresh result cache and ledger (``repro fidelity run --dir``)."""
    from repro.common.config import SimParams
    from repro.common.errors import SweepError
    from repro.obs import fidelity
    from repro.obs.ledger import Ledger
    from repro.sim.executor import DiskCache, cell_key
    from repro.workloads import BENCHMARK_NAMES

    cache_dir, perf_dir = workdir / "cache", workdir / "perf"

    def run(rec):
        failures: List[str] = []
        claims: List = []
        with _environ(REPRO_CACHE_DIR=cache_dir, REPRO_PERF_DIR=perf_dir), \
                _timed(rec) as t:
            try:
                doc = fidelity.run_campaign(scale=scale, seed=seed,
                                            engine="fast", jobs=1, cache=True)
                claims = [(c["id"], c["status"]) for c in doc["claims"]]
            except SweepError as exc:
                failures.extend(str(f) for f in exc.failures)
        # Untimed: every cell's result back from the campaign's cache.
        params = SimParams(seed=seed, scale=scale)
        cache = DiskCache(cache_dir)
        results, parity = [], {}
        axis = _campaign_axis()
        for bench in BENCHMARK_NAMES:
            for label, config in axis.items():
                result = cache.get(cell_key(bench, config, params))
                if result is None:
                    failures.append(f"({bench}, {label}): no result cached")
                    continue
                results.append(result)
                if label in PARITY_LABELS:
                    parity[f"{bench}/{label}"] = digest(result)
        walls = [r.host["wall_s"] for r in Ledger(perf_dir).records()]
        sample = _sample(t, walls, results,
                         attempted=len(BENCHMARK_NAMES) * len(axis),
                         failures=failures, claims=claims, parity=parity)
        sample["claims_in_band"] = sum(s == "pass" for _, s in claims)
        return sample

    return run


def cold_start(seed: int, workdir: Path, scale: float = COLD_START_SCALE,
               benchmarks: Optional[List[str]] = None) -> Callable:
    """One ``wth-wp-wec`` cell per benchmark, every fast-engine memo cold."""
    from repro import SimParams, named_config
    from repro.sim import executor
    from repro.workloads import BENCHMARK_NAMES

    config = named_config("wth-wp-wec")
    params = SimParams(seed=seed, scale=scale)
    cells = [executor.SweepCell(b, config.name, config, params)
             for b in (benchmarks or BENCHMARK_NAMES)]

    def run(rec):
        with _timed(rec) as t:
            outcome = executor.run_cells(cells, jobs=1, cache=False,
                                         engine="fast", strict=False)
        return _sample(t, [r.wall_s for r in outcome.stats.records],
                       outcome.results.values(), attempted=len(cells),
                       failures=[str(f) for f in outcome.stats.failures])

    return run


def conservation_violations(attribution: Dict) -> List[str]:
    """Speculative sources whose lifetimes do not add up to their fills."""
    from repro.obs.attrib import PROV_NAMES, SPECULATIVE_PROVS

    bad = []
    for prov in SPECULATIVE_PROVS:
        src = attribution["per_source"][PROV_NAMES[prov]]
        parts = (src["useful"] + src["late"] + src["unused"]
                 + src["polluting"] + src["open"])
        if src["fills"] != parts:
            bad.append(f"{PROV_NAMES[prov]}: fills {src['fills']} != {parts}")
    return bad


def explain(seed: int, workdir: Path, scale: float = EXPLAIN_SCALE,
            benchmarks: Optional[List[str]] = None) -> Callable:
    """``repro explain <bench> wth-wp-wec --vs wth-wp`` for every benchmark:
    the oracle with attribution, in-process."""
    from repro import cli
    from repro.workloads import BENCHMARK_NAMES

    names = list(benchmarks or BENCHMARK_NAMES)

    def run(rec):
        results, docs, walls, failures = [], [], [], []
        # Tap the CLI's simulation call for the SimResults behind the
        # JSON (the model counters); it adds one list append per run.
        simulate = cli.run_program

        def tap(*args, **kwargs):
            result = simulate(*args, **kwargs)
            results.append(result)
            return result

        cli.run_program = tap
        try:
            with _timed(rec) as t:
                for bench in names:
                    if rec is not None:
                        rec.begin_cell(f"{bench}/explain")
                    out = io.StringIO()
                    t0 = time.monotonic()
                    try:
                        with redirect_stdout(out):
                            rc = cli.main([
                                "explain", bench, "wth-wp-wec", "--vs", "wth-wp",
                                "--scale", repr(scale), "--seed", str(seed),
                                "--format", "json"])
                    except SystemExit as exc:  # argparse rejects bad input
                        rc = exc.code
                    walls.append(time.monotonic() - t0)
                    if rc != 0:
                        failures.append(f"explain {bench}: exit {rc}")
                    else:
                        docs.append(out.getvalue())
        finally:
            cli.run_program = simulate
        for text in docs:
            doc = json.loads(text)
            for side in (doc["attribution"], doc["vs"]["attribution"]):
                failures.extend(f"explain {doc['benchmark']}: {v}"
                                for v in conservation_violations(side))
        explained = hashlib.sha256("".join(docs).encode()).hexdigest()
        return _sample(t, walls, results,
                       attempted=len(names) + 2 * len(docs),
                       failures=failures, explain=explained)

    return run


WORKLOADS: Dict[str, Callable] = {
    "campaign": campaign,
    "cold-start": cold_start,
    "explain": explain,
}


def parity(seed: int, workdir: Path, scale: float = CAMPAIGN_SCALE) -> Dict:
    """The parity cells on the oracle, digested like the campaign's."""
    from repro.common.config import SimParams
    from repro.sim.executor import DiskCache, SweepCell, run_cells
    from repro.workloads import BENCHMARK_NAMES

    params = SimParams(seed=seed, scale=scale)
    axis = _campaign_axis()
    cells = [SweepCell(b, label, axis[label], params)
             for b in BENCHMARK_NAMES for label in PARITY_LABELS]
    # Through a cache like the campaign's, so both sides' results were
    # decoded from the same JSON form before hashing.
    cache_dir = workdir / "cache"
    outcome = run_cells(cells, jobs=1, cache=True, cache_dir=cache_dir,
                        engine="oracle", strict=False)
    cache = DiskCache(cache_dir)
    digests = {}
    for cell in cells:
        result = cache.get(cell.key())
        if result is not None:
            digests[f"{cell.benchmark}/{cell.label}"] = digest(result)
    return {"parity": digests,
            "failures": [str(f) for f in outcome.stats.failures]}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--parity", action="store_true",
                    help="run the oracle parity cells instead of a workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=Path,
                    help="trace the layers; write Chrome-trace JSON here")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the workload would call the program")
    args = ap.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.parity:
        out = parity(args.seed, args.workdir)
    else:
        if args.workload is None:
            ap.error("--workload or --parity is required")
        run = WORKLOADS[args.workload](args.seed, args.workdir)
        if args.setup_only:
            out = {"t_entry": time.monotonic()}
        elif args.trace is None:
            out = run(None)
        else:
            rec = spans.Recorder()
            inst = spans.install(rec)
            out = run(rec)
            inst.uninstall()
            out["layers"] = spans.layer_metrics(rec, inst)
            out["absent"] = inst.absent
            out["chrome_events"] = spans.write_chrome_trace(
                rec, args.trace, args.workload)
    args.out.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    code = main()
    # Skip interpreter teardown: freeing a sample's heap (up to ~250 MB of
    # memos) takes longer than some of the layers being measured, and
    # every sample's process time counts against the run's budget.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
