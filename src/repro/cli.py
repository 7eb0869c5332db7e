"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show available benchmarks (Table 2 metadata) and configurations.
``run``
    Simulate one benchmark on one configuration and print the result.
``trace``
    Simulate one benchmark/config pair with event tracing on and write
    a Perfetto-loadable Chrome trace (see ``docs/OBSERVABILITY.md``).
``explain``
    Simulate one benchmark/config pair with the provenance-attribution
    collector attached and render where every speculative fill came
    from and what it bought (coverage, accuracy, timeliness,
    pollution); ``--vs CONFIG`` diffs two configs A/B-style.
``perf record | compare | report``
    The performance observatory: append profiled runs to the persistent
    ledger (``$REPRO_PERF_DIR``, default ``.perf``), compare two record
    sets benchstat-style, and render the recorded trajectory.
``fidelity run | check``
    The fidelity observatory (``docs/OBSERVABILITY.md``): run the
    fig08–fig17 + tables campaign grid, score every paper claim in
    ``benchmarks/claims.json`` and print the per-benchmark figure
    tables beside the paper's values; diff a fresh campaign against the
    committed baseline (exit 1 on a regressed *gate* claim).
``lint``
    Static determinism/invariant analysis over Python sources (rule
    catalog in ``docs/STATIC_ANALYSIS.md``); exit 1 on findings.
``cache stats | prune``
    Inspect the persistent result cache and evict least-recently-used
    entries down to a size budget (``$REPRO_CACHE_MAX_MB`` or
    ``--max-mb``).

Examples
--------
::

    python -m repro list
    python -m repro run --benchmark mcf --config wth-wp-wec
    python -m repro trace 181.mcf wth-wp-wec --out trace.json
    python -m repro explain 181.mcf wth-wp-wec --vs wth-wp --top 5
    python -m repro perf record 181.mcf wth-wp-wec --repeat 4 --label before
    python -m repro perf compare before after --threshold 10%
    python -m repro perf report --json BENCH_smoke.json
    python -m repro fidelity run --scale 2e-4 --jobs 4 --engine fast
    python -m repro fidelity run --sections fig11 --engine fast
    python -m repro fidelity check benchmarks/FIDELITY_baseline.json
    python -m repro lint src --baseline lint-baseline.json
    python -m repro cache stats
    python -m repro cache prune --max-mb 256

Simulations resolve through the persistent result cache
(``$REPRO_CACHE_DIR``, default ``~/.cache/repro``; bypass with
``--no-cache``); ``fidelity`` fans cache misses out over ``--jobs``
worker processes.

Every simulated result is checked against the run identities of
:data:`repro.sim.results.RUN_IDENTITIES` on either engine; a run that
breaks one fails with exit 1.  Cache hits were checked when they ran.

Exit codes follow one convention (shared by ``trace``/``perf``/``lint``
via one helper): 0 = success, 1 = a failed run, a significant perf
regression, or lint findings, 2 = a usage error (unknown name,
unparseable flag, missing or malformed input).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .common.config import MachineConfig, SimParams
from .common.errors import (
    AnalysisError,
    ConfigError,
    LintError,
    ReproError,
    WorkloadError,
)
from .lint.engine import lint_paths, write_baseline
from .lint.rules import RULES
from .obs.attrib import (
    AttributionCollector,
    explain_report,
    explain_vs_report,
)
from .obs.compare import compare_records, parse_threshold
from .obs.events import CATEGORIES
from .obs.fidelity import (
    PERTURBATIONS,
    campaign_axis,
    diff_exports,
    figure_table_cells,
    load_fidelity_export,
    render_markdown,
    run_campaign,
)
from .obs.export import write_chrome_trace, write_jsonl
from .obs.hostprof import HostProfiler, peak_rss_kb
from .obs.ledger import (
    Ledger,
    PerfRecord,
    default_perf_dir,
    load_records,
    write_export,
)
from .obs.tracer import IntervalMetrics, RingBufferTracer
from .sim.driver import ENGINES, run_program, run_simulation
from .sim.executor import (
    DiskCache,
    code_version_token,
    config_fingerprint,
    default_engine,
    run_cell,
)
from .sim.tables import TextTable
from .sta.configs import CONFIG_NAMES, named_config
from .workloads.benchmarks import BENCHMARK_NAMES, benchmark_infos, build_benchmark

__all__ = ["main", "build_parser"]

def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Wrong Execution Cache reproduction — simulate SPEC2000-like "
            "workloads on a superthreaded architecture."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and configurations")

    def add_point(sp):
        sp.add_argument("--scale", type=float, default=2e-4,
                        help="instruction scale vs Table 2 (default 2e-4)")
        sp.add_argument("--seed", type=int, default=2003)
        sp.add_argument("--tus", type=int, default=8,
                        help="number of thread units (default 8)")

    def add_engine(sp):
        sp.add_argument("--engine", default=None, choices=ENGINES,
                        help="simulation engine (default $REPRO_ENGINE or "
                             "oracle); 'fast' is bit-identical on results "
                             "but has no event-level observer hooks")

    run_p = sub.add_parser("run", help="simulate one benchmark/config pair")
    run_p.add_argument("--benchmark", required=True)
    run_p.add_argument("--config", default="wth-wp-wec", choices=CONFIG_NAMES)
    add_point(run_p)
    run_p.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent result cache "
                            "($REPRO_CACHE_DIR, default ~/.cache/repro)")
    add_engine(run_p)

    diff_p = sub.add_parser(
        "diff",
        help="differential engine check: run the oracle and fast engines "
             "on the same grid and compare full results field by field; "
             "exit 1 on any divergence",
    )
    diff_p.add_argument("--benchmarks", default=None, metavar="NAMES",
                        help="comma-separated benchmark names "
                             "(default: the whole Table 2 suite)")
    diff_p.add_argument("--configs", default=None, metavar="LABELS",
                        help="comma-separated campaign labels (default: "
                             "every distinct configuration the fidelity "
                             "campaign runs, each once)")
    diff_p.add_argument("--scale", type=float, default=2e-5,
                        help="instruction scale vs Table 2 "
                             "(default 2e-5: smoke size)")
    diff_p.add_argument("--seed", type=int, default=2003)
    diff_p.add_argument("--seeds", default=None, metavar="LIST",
                        help="comma-separated seeds (overrides --seed; "
                             "every cell is checked under each)")

    trace_p = sub.add_parser(
        "trace",
        help="simulate one pair with tracing on; write a Perfetto trace",
    )
    trace_p.add_argument("benchmark", help="benchmark name (see `repro list`)")
    trace_p.add_argument("config", choices=CONFIG_NAMES)
    trace_p.add_argument("--out", default="trace.json", metavar="PATH",
                         help="Chrome trace-event JSON output "
                              "(default trace.json; open in ui.perfetto.dev)")
    trace_p.add_argument("--jsonl", default=None, metavar="PATH",
                         help="also dump raw events as JSON Lines to PATH")
    trace_p.add_argument("--events", default=None, metavar="CATS",
                         help="comma-separated categories to record "
                              f"(default all: {','.join(CATEGORIES)})")
    trace_p.add_argument("--window", type=float, default=4096.0, metavar="N",
                         help="interval-metrics window in cycles "
                              "(default 4096; 0 disables counter tracks)")
    trace_p.add_argument("--sample", type=int, default=1, metavar="N",
                         help="keep every N-th event per category (default 1)")
    trace_p.add_argument("--capacity", type=int, default=1 << 20, metavar="N",
                         help="ring-buffer capacity; oldest events are "
                              "overwritten beyond it (default 1Mi)")
    add_point(trace_p)
    trace_p.add_argument("--attrib", action="store_true",
                         help="attach the provenance-attribution collector "
                              "too: adds attrib_use/attrib_pollute events "
                              "and the attribution counter tracks to the "
                              "Perfetto trace")

    exp_p = sub.add_parser(
        "explain",
        help="attribute speculative fills by provenance (coverage, "
             "accuracy, timeliness, pollution); --vs diffs two configs",
    )
    exp_p.add_argument("benchmark", help="benchmark name (see `repro list`)")
    exp_p.add_argument("config", choices=CONFIG_NAMES)
    exp_p.add_argument("--vs", default=None, metavar="CONFIG",
                       choices=CONFIG_NAMES, dest="vs",
                       help="also run CONFIG on the same workload and "
                            "render an A/B attribution delta")
    exp_p.add_argument("--top", type=int, default=5, metavar="N",
                       help="rows in the per-region / per-PC top tables "
                            "(default 5)")
    exp_p.add_argument("--format", choices=["text", "json"], default="text",
                       help="output format (default text); json dumps the "
                            "raw attribution summaries")
    add_point(exp_p)
    exp_p.add_argument("--window", type=float, default=4096.0, metavar="N",
                       help="attribution series window in cycles "
                            "(default 4096)")

    lint_p = sub.add_parser(
        "lint",
        help="static determinism/invariant analysis (AST-based); "
             "exit 1 on findings, 2 on usage errors",
    )
    lint_p.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    lint_p.add_argument("--rule", action="append", default=None,
                        metavar="ID",
                        help="restrict to these rule ids (repeatable or "
                             "comma-separated); default: all rules")
    lint_p.add_argument("--baseline", default=None, metavar="FILE",
                        help="baseline JSON ratchet file; matching findings "
                             "are suppressed (every entry needs a reason), "
                             "stale entries are reported")
    lint_p.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text",
                        help="output format (default text); sarif emits a "
                             "SARIF 2.1.0 document for PR annotation")
    lint_p.add_argument("--flow", action="store_true",
                        help="also run the whole-program flow pass "
                             "(call graph + effect summaries): engine "
                             "parity ENG001/ENG002, interprocedural "
                             "DET001/DET004 (docs/STATIC_ANALYSIS.md, "
                             "\"Flow analysis\"); make lint runs with "
                             "this on")
    lint_p.add_argument("--write-baseline", default=None, metavar="FILE",
                        help="write current findings to FILE as a new "
                             "baseline (reasons stamped as TODO; the "
                             "loader rejects them until justified) and "
                             "exit 0")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")

    cache_p = sub.add_parser(
        "cache",
        help="persistent result cache: stats, LRU prune",
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cstats_p = cache_sub.add_parser(
        "stats", help="entry count, size, and quota of the result cache")
    cstats_p.add_argument("--dir", default=None, metavar="PATH",
                          help="cache root (default $REPRO_CACHE_DIR or "
                               "~/.cache/repro)")
    cprune_p = cache_sub.add_parser(
        "prune",
        help="evict least-recently-used entries until the cache fits "
             "the budget",
    )
    cprune_p.add_argument("--dir", default=None, metavar="PATH",
                          help="cache root (default $REPRO_CACHE_DIR or "
                               "~/.cache/repro)")
    cprune_p.add_argument("--max-mb", type=float, default=None, metavar="MB",
                          help="size budget in MiB (default "
                               "$REPRO_CACHE_MAX_MB; required if unset)")

    perf_p = sub.add_parser(
        "perf",
        help="performance observatory: record, compare, report",
    )
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)

    rec_p = perf_sub.add_parser(
        "record",
        help="run one benchmark/config pair (profiled) and append the "
             "measurements to the perf ledger",
    )
    rec_p.add_argument("benchmark", help="benchmark name (see `repro list`)")
    rec_p.add_argument("config", choices=CONFIG_NAMES)
    rec_p.add_argument("--repeat", type=int, default=1, metavar="N",
                       help="record N repeated runs (host metrics need >=2 "
                            "per side to test significance; default 1)")
    rec_p.add_argument("--label", default="",
                       help="free-form label for later A/B selection "
                            "(`perf compare <label> <label>`)")
    rec_p.add_argument("--dir", default=None, metavar="PATH",
                       help="ledger directory (default $REPRO_PERF_DIR "
                            "or .perf)")
    add_point(rec_p)
    rec_p.add_argument("--trace", action="store_true",
                       help="attach a full event tracer during the run "
                            "(adds host-side overhead; simulated metrics "
                            "are unchanged — useful to exercise the "
                            "regression detector)")
    rec_p.add_argument("--no-baseline", action="store_true",
                       help="skip the orig baseline run (records no "
                            "speedup_pct)")
    rec_p.add_argument("--engine", default=None, choices=ENGINES,
                       help="simulation engine (default $REPRO_ENGINE or "
                            "oracle); recorded in each ledger entry's "
                            "provenance — incompatible with --trace, "
                            "which needs the oracle's event hooks")

    cmpp = perf_sub.add_parser(
        "compare",
        help="benchstat-style A/B of two record sets; exit 1 on a "
             "significant regression beyond --threshold",
    )
    cmpp.add_argument("ref", help="baseline side: a ledger dir, a .jsonl "
                                  "file, a JSON export, or a --label value "
                                  "in the default ledger")
    cmpp.add_argument("new", help="candidate side (same forms as ref)")
    cmpp.add_argument("--threshold", default="5%", metavar="PCT",
                      help="regression threshold: '10%%', '10' (percent) "
                           "or '0.1' (fraction); default 5%%")
    cmpp.add_argument("--metrics", default=None, metavar="NAMES",
                      help="comma-separated metric names to compare "
                           "(default: all known metrics present on both "
                           "sides)")
    cmpp.add_argument("--dir", default=None, metavar="PATH",
                      help="ledger directory used to resolve label "
                           "arguments (default $REPRO_PERF_DIR or .perf)")

    rep_p = perf_sub.add_parser(
        "report",
        help="render the recorded performance trajectory as markdown",
    )
    rep_p.add_argument("--dir", default=None, metavar="PATH",
                       help="ledger directory (default $REPRO_PERF_DIR "
                            "or .perf)")
    rep_p.add_argument("--label", default=None,
                       help="only records with this label")
    rep_p.add_argument("--json", default=None, metavar="PATH",
                       help="also write the records as a validated JSON "
                            "export document (e.g. BENCH_smoke.json)")

    fid_p = sub.add_parser(
        "fidelity",
        help="fidelity observatory: score the paper's claims against a "
             "campaign run and gate on drift (docs/OBSERVABILITY.md)",
    )
    fid_sub = fid_p.add_subparsers(dest="fidelity_command", required=True)

    def add_fidelity_run_knobs(sp):
        sp.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the campaign grid "
                             "(default 1 = serial)")
        sp.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache")
        sp.add_argument("--claims", default=None, metavar="PATH",
                        help="claim registry (default "
                             "benchmarks/claims.json)")
        sp.add_argument("--perturb", default=None, choices=PERTURBATIONS,
                        help="apply a seeded out-of-band config change "
                             "(gate-proving: 'no-wec' strips the WEC and "
                             "must trip `fidelity check`)")
        sp.add_argument("--dir", default=None, metavar="PATH",
                        help="perf ledger directory (default "
                             "$REPRO_PERF_DIR; unset: no ledger); campaign "
                             "cells land in it with context=fidelity")
        add_engine(sp)

    frun_p = fid_sub.add_parser(
        "run",
        help="run the fig08–fig17 + tables campaign grid, score every "
             "claim in the registry, write the export/report artifacts",
    )
    frun_p.add_argument("--scale", type=float, default=2e-4,
                        help="instruction scale vs Table 2 (default 2e-4)")
    frun_p.add_argument("--seed", type=int, default=2003)
    frun_p.add_argument("--sections", default=None, metavar="NAMES",
                        help="comma-separated grid sections to run "
                             "(default: all); claims needing an unrun "
                             "section score 'skipped'")
    frun_p.add_argument("--out", default=None, metavar="PATH",
                        help="write the scored campaign as a JSON export "
                             "(e.g. benchmarks/FIDELITY_baseline.json)")
    frun_p.add_argument("--md", default=None, metavar="PATH",
                        help="render the measured-vs-paper markdown "
                             "report (e.g. docs/FIDELITY.md)")
    add_fidelity_run_knobs(frun_p)

    fchk_p = fid_sub.add_parser(
        "check",
        help="diff a fresh campaign (or --new export) against a "
             "committed baseline; exit 1 on any regressed gate claim",
    )
    fchk_p.add_argument("baseline",
                        help="baseline campaign export (e.g. "
                             "benchmarks/FIDELITY_baseline.json)")
    fchk_p.add_argument("--new", default=None, metavar="PATH",
                        help="pre-recorded campaign export to compare; "
                             "default: run a fresh campaign at the "
                             "baseline's recorded scale/seed/sections")
    fchk_p.add_argument("--threshold", default="10%", metavar="PCT",
                        help="polarity-aware drift threshold: '10%%', "
                             "'10' (percent) or '0.1' (fraction); "
                             "default 10%%")
    add_fidelity_run_knobs(fchk_p)

    return p


def _cmd_list() -> int:
    t = TextTable(
        "benchmarks (Table 2)",
        ["name", "suite", "input set", "whole (M)", "parallel"],
    )
    for info in benchmark_infos():
        t.add_row([
            info.name, info.suite, info.input_set,
            f"{info.whole_minstr:.1f}",
            f"{info.fraction_parallelized * 100:.1f}%",
        ])
    print(t)
    print()
    print("configurations:", ", ".join(CONFIG_NAMES))
    return 0


def _cmd_run(args) -> int:
    params = SimParams(seed=args.seed, scale=args.scale)
    cfg = named_config(args.config, n_tus=args.tus)
    result = run_cell(args.benchmark, cfg, params,
                      cache=not args.no_cache, engine=args.engine)
    print(f"machine : {cfg.describe()}")
    print(f"result  : {result.total_cycles:.0f} cycles, ipc={result.ipc:.2f}")
    print(f"memory  : {result.effective_misses} effective misses, "
          f"{result.l1_traffic} L1 accesses, "
          f"{result.mispredict_rate:.1%} branch mispredicts")
    if result.wrong_loads:
        print(f"wrong   : {result.wrong_loads} wrong loads "
              f"({result.wrong_thread_loads} from wrong threads), "
              f"{result.useful_wrong_hits} useful hits, "
              f"{result.prefetches} chained prefetches")
    return 0


#: One exit-code convention for ``trace``/``perf``/``lint`` (satellite of
#: the lint PR: previously three ad-hoc try/except blocks).  Errors that
#: mean the *invocation* was unusable — bad names, unparseable knobs,
#: malformed baseline/export files — exit 2; an accepted invocation that
#: fails while running exits 1.
_USAGE_ERRORS = (ConfigError, WorkloadError, AnalysisError, LintError)


def _checked(label: str, body: Callable[[], int]) -> int:
    """Run a command body under the shared 0/1/2 exit convention."""
    try:
        return body()
    except _USAGE_ERRORS as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 1


def _cmd_trace(args) -> int:
    categories = None
    if args.events:
        categories = [c.strip() for c in args.events.split(",") if c.strip()]
    metrics = IntervalMetrics(window=args.window) if args.window > 0 else None
    tracer = RingBufferTracer(
        capacity=args.capacity,
        categories=categories,
        sample=args.sample,
        metrics=metrics,
    )
    params = SimParams(seed=args.seed, scale=args.scale)
    cfg = named_config(args.config, n_tus=args.tus)
    attrib = None
    if args.attrib:
        attrib = AttributionCollector(window=args.window, tracer=tracer)
    # Traced runs bypass the result cache: the cached artifact is the
    # SimResult, not the event stream, and tracing does not change it.
    result = run_simulation(args.benchmark, cfg, params, tracer=tracer,
                            attrib=attrib)
    events = tracer.events()
    out = write_chrome_trace(
        events,
        args.out,
        interval_series=result.interval_series,
        label=f"{args.benchmark} on {args.config} ({args.tus} TUs, "
              f"scale {args.scale:g}, seed {args.seed})",
        attrib_series=attrib.series() if attrib is not None else None,
    )
    print(f"result : {result.total_cycles:.0f} cycles, ipc={result.ipc:.2f}")
    print(f"trace  : {len(events)} events -> {out} "
          f"(open in https://ui.perfetto.dev)")
    if tracer.n_dropped:
        print(f"warning: ring full, {tracer.n_dropped} oldest events "
              f"overwritten (raise --capacity or use --sample/--events)")
    if args.jsonl:
        path = write_jsonl(events, args.jsonl)
        print(f"jsonl  : {path}")
    return 0


def _cmd_explain(args) -> int:
    params = SimParams(seed=args.seed, scale=args.scale)
    # One prebuilt program reused across both runs (and the same seed /
    # scale), so the A/B delta is attributable to the config alone.
    program = build_benchmark(args.benchmark, scale=args.scale)

    def attributed_run(config_name: str):
        # Attributed runs bypass the result cache for the same reason
        # traced runs do: the artifact of interest is the attribution
        # summary, which the cache does not store — and attribution
        # never changes the SimResult itself (test-enforced).
        attrib = AttributionCollector(window=args.window)
        cfg = named_config(config_name, n_tus=args.tus)
        return run_program(program, cfg, params, attrib=attrib)

    result = attributed_run(args.config)
    other = attributed_run(args.vs) if args.vs else None
    if args.format == "json":
        doc = {
            "benchmark": args.benchmark,
            "config": args.config,
            "n_tus": args.tus,
            "seed": args.seed,
            "scale": args.scale,
            "attribution": result.attribution,
        }
        if other is not None:
            doc["vs"] = {"config": args.vs,
                         "attribution": other.attribution}
        print(json.dumps(doc, indent=2))
        return 0
    if other is not None:
        print(explain_vs_report(result, other, top=args.top))
    else:
        print(explain_report(result, top=args.top))
    return 0


def _dict_diff_paths(ref, new, prefix: str = "") -> List[str]:
    """Dotted paths (with both values) where two nested dicts differ."""
    if isinstance(ref, dict) and isinstance(new, dict):
        out: List[str] = []
        for key in sorted(set(ref) | set(new)):
            child = f"{prefix}.{key}" if prefix else str(key)
            out.extend(_dict_diff_paths(ref.get(key), new.get(key), child))
        return out
    if ref != new:
        return [f"{prefix}: oracle={ref!r} fast={new!r}"]
    return []


def _cmd_diff(args) -> int:
    bench_names = (
        [b.strip() for b in args.benchmarks.split(",") if b.strip()]
        if args.benchmarks else list(BENCHMARK_NAMES)
    )
    axis = campaign_axis()
    if args.configs:
        labels = [c.strip() for c in args.configs.split(",") if c.strip()]
        unknown = [c for c in labels if c not in axis]
        if unknown:
            raise ConfigError(
                f"unknown configuration(s): {', '.join(unknown)}")
        axis = {label: axis[label] for label in labels}
    # Each distinct configuration once, under its first label: the
    # campaign's 51 labels name 45 configurations (``orig@8tu`` is
    # ``orig``).
    configs: Dict[MachineConfig, str] = {}
    for label, cfg in axis.items():
        configs.setdefault(cfg, label)
    seeds = (
        [int(s) for s in args.seeds.split(",") if s.strip()]
        if args.seeds else [args.seed]
    )
    n_cells = 0
    mismatches = []
    t0 = time.perf_counter()
    # Straight run_program calls on both engines: the disk cache is
    # deliberately bypassed (a cached result would compare an engine
    # against itself), and one prebuilt program per benchmark keeps the
    # two sides on the exact same workload object.
    for bench in bench_names:
        program = build_benchmark(bench, scale=args.scale)
        for seed in seeds:
            params = SimParams(seed=seed, scale=args.scale)
            for cfg, label in configs.items():
                oracle = run_program(program, cfg, params, engine="oracle")
                fast = run_program(program, cfg, params, engine="fast")
                n_cells += 1
                diffs = _dict_diff_paths(oracle.to_dict(), fast.to_dict())
                if diffs:
                    mismatches.append((bench, label, seed, diffs))
        print(f"{bench}: {len(seeds) * len(configs)} cell(s) checked")
    wall = time.perf_counter() - t0
    if mismatches:
        print(f"\n{len(mismatches)} of {n_cells} cell(s) diverge between "
              f"engines:", file=sys.stderr)
        for bench, label, seed, diffs in mismatches:
            print(f"  {bench}/{label} seed={seed}:", file=sys.stderr)
            for line in diffs[:8]:
                print(f"    {line}", file=sys.stderr)
            if len(diffs) > 8:
                print(f"    ... {len(diffs) - 8} more field(s)",
                      file=sys.stderr)
        return 1
    print(f"\ndiff: {n_cells} cell(s) bit-identical across engines "
          f"({wall:.1f}s)")
    return 0


def _cmd_cache_stats(args) -> int:
    stats = DiskCache(args.dir).stats()
    print(f"root    : {stats.root}")
    print(f"entries : {stats.entries}")
    print(f"size    : {stats.total_mb:.1f} MiB ({stats.total_bytes} bytes)")
    if stats.quota_mb is not None:
        print(f"quota   : {stats.quota_mb:g} MiB ($REPRO_CACHE_MAX_MB)")
    else:
        print("quota   : none ($REPRO_CACHE_MAX_MB unset)")
    return 0


def _cmd_cache_prune(args) -> int:
    cache = DiskCache(args.dir, max_mb=args.max_mb)
    pruned = cache.prune(args.max_mb)
    mib = 1024 * 1024
    print(f"removed : {pruned.removed} entr(y/ies), "
          f"{pruned.freed_bytes / mib:.1f} MiB freed")
    print(f"kept    : {pruned.kept} entr(y/ies), "
          f"{pruned.kept_bytes / mib:.1f} MiB")
    return 0


def _perf_ledger_dir(arg: Optional[str]) -> Path:
    if arg:
        return Path(arg)
    return default_perf_dir() or Path(".perf")


def _cmd_perf_record(args) -> int:
    if args.repeat < 1:
        print("perf record: --repeat must be >= 1", file=sys.stderr)
        return 2
    params = SimParams(seed=args.seed, scale=args.scale)
    cfg = named_config(args.config, n_tus=args.tus)
    engine = args.engine if args.engine is not None else default_engine()
    program = build_benchmark(args.benchmark, scale=args.scale)
    ledger = Ledger(_perf_ledger_dir(args.dir))
    config_fp = config_fingerprint(cfg)
    params_fp = config_fingerprint(params)
    code_token = code_version_token()

    # The orig baseline only feeds the deterministic speedup_pct metric,
    # so one unprofiled in-process run is enough for every repeat.
    baseline = None
    if not args.no_baseline and args.config != "orig":
        baseline = run_program(
            program, named_config("orig", n_tus=args.tus), params
        )

    for i in range(args.repeat):
        profiler = HostProfiler()
        tracer = None
        if args.trace:
            tracer = RingBufferTracer(metrics=IntervalMetrics())
        t0 = time.perf_counter()
        result = run_program(program, cfg, params,
                             tracer=tracer, profiler=profiler,
                             engine=engine)
        wall_s = time.perf_counter() - t0
        speedup_pct = (
            result.relative_speedup_pct_vs(baseline)
            if baseline is not None else None
        )
        record = PerfRecord.from_result(
            result,
            wall_s=wall_s,
            speedup_pct=speedup_pct,
            profile=profiler.snapshot(wall_s),
            peak_rss_kb=peak_rss_kb(),
            context="cli.perf.record",
            label=args.label,
            config_fp=config_fp,
            params_fp=params_fp,
            code_token=code_token,
            engine=engine,
        )
        ledger.append(record)
        eps = record.host.get("events_per_sec", 0.0)
        print(f"run {i + 1}/{args.repeat}: {result.total_cycles:.0f} cycles "
              f"in {wall_s:.3f}s ({eps:,.0f} instr/s"
              + (f", speedup {speedup_pct:+.1f}%" if speedup_pct is not None
                 else "") + ")")
    print(f"ledger : {ledger.path} ({len(ledger)} records)")
    return 0


def _perf_side(spec: str, perf_dir: Path):
    """Resolve one compare operand: a path, else a label in the ledger."""
    path = Path(spec)
    if path.exists():
        return load_records(path)
    records = Ledger(perf_dir).records(label=spec)
    if not records:
        raise AnalysisError(
            f"{spec!r} is neither a readable path nor a label with "
            f"records in {Ledger(perf_dir).path}"
        )
    return records


def _cmd_perf_compare(args) -> int:
    perf_dir = _perf_ledger_dir(args.dir)
    threshold = parse_threshold(args.threshold)
    metrics = None
    if args.metrics:
        metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    ref = _perf_side(args.ref, perf_dir)
    new = _perf_side(args.new, perf_dir)
    report = compare_records(ref, new, metrics=metrics)
    print(report.render(threshold))
    regressions = report.regressions(threshold)
    if regressions:
        print(f"\n{len(regressions)} significant regression(s) beyond "
              f"{threshold:g}%:", file=sys.stderr)
        for group, mc in regressions:
            print(f"  {group.benchmark}/{group.config}: {mc.describe()}",
                  file=sys.stderr)
        return 1
    print(f"\nno significant regressions beyond {threshold:g}%")
    return 0


def _cmd_perf_report(args) -> int:
    perf_dir = _perf_ledger_dir(args.dir)
    records = load_records(perf_dir)
    if args.label is not None:
        records = [r for r in records if r.label == args.label]
        if not records:
            print(f"perf report: no records labelled {args.label!r} in "
                  f"{perf_dir}", file=sys.stderr)
            return 2

    groups = {}
    for r in records:
        groups.setdefault((r.benchmark, r.config), []).append(r)

    print("# Performance trajectory")
    print()
    print(f"_{len(records)} record(s) from `{perf_dir}`_")
    for (bench, config), rs in sorted(groups.items()):
        print()
        print(f"## {bench} / {config}")
        print()
        print("| recorded (UTC) | code | label | cycles | ipc | "
              "wall (s) | instr/s | speedup |")
        print("|---|---|---|--:|--:|--:|--:|--:|")
        for r in rs:
            when = time.strftime("%Y-%m-%d %H:%M", time.gmtime(r.ts))
            code = (r.provenance.get("code_token") or
                    r.provenance.get("git_sha") or "")[:8]
            speedup = r.sim.get("speedup_pct")
            print("| {} | {} | {} | {:.0f} | {:.3f} | {:.3f} | {:,.0f} | {} |"
                  .format(
                      when, code or "-", r.label or "-",
                      r.sim.get("total_cycles", 0.0),
                      r.sim.get("ipc", 0.0),
                      r.host.get("wall_s", 0.0),
                      r.host.get("events_per_sec", 0.0),
                      f"{speedup:+.1f}%" if speedup is not None else "-",
                  ))
        latest = rs[-1]
        if latest.profile:
            print()
            print("Latest host profile (sections nest; % of total wall):")
            print()
            by_pct = sorted(latest.profile.items(),
                            key=lambda kv: -kv[1].get("pct", 0.0))
            for name, entry in by_pct:
                pct = entry.get("pct")
                pct_s = f"{pct:5.1f}%" if pct is not None else "     -"
                print(f"- `{name}`: {pct_s}  "
                      f"({entry['s']:.3f}s / {entry['calls']} calls)")

    if args.json:
        path = write_export(records, args.json)
        print()
        print(f"export : {path} ({len(records)} records)")
    return 0


def _fidelity_campaign(args, scale: float, seed: int,
                       sections: Optional[List[str]]) -> Dict:
    """Shared campaign invocation for ``fidelity run`` and ``check``."""
    done = {"n": 0}

    def progress(bench: str, label: str) -> None:
        done["n"] += 1
        if done["n"] % 50 == 0:
            print(f"  ... {done['n']} cells resolved", file=sys.stderr)

    return run_campaign(
        claims_path=args.claims,
        scale=scale,
        seed=seed,
        jobs=args.jobs,
        engine=args.engine,
        cache=False if args.no_cache else None,
        sections=sections,
        perturb=args.perturb,
        progress=progress,
        perf_dir=args.dir,
    )


def _print_fidelity_summary(doc: Dict) -> None:
    """Claim verdicts (failures and skips named), then the figure tables."""
    summary = doc.get("summary", {})
    gate, track = summary.get("gate", {}), summary.get("track", {})
    print(f"fidelity campaign: {doc.get('n_cells', 0)} cells, "
          f"sections {', '.join(doc.get('sections', []))}")
    print(f"  gate  claims: {gate.get('pass', 0)} pass, "
          f"{gate.get('fail', 0)} fail, {gate.get('skipped', 0)} skipped")
    print(f"  track claims: {track.get('pass', 0)} pass, "
          f"{track.get('fail', 0)} fail, {track.get('skipped', 0)} skipped")
    ran = set(doc.get("sections", []))
    unrun = [c["id"] for c in doc.get("claims", [])
             if not set(c.get("requires", [])) <= ran]
    for claim in doc.get("claims", []):
        if claim["status"] == "fail":
            band = claim.get("band")
            band_s = f" band {band}" if band else ""
            print(f"  [fail] {claim['id']}: measured "
                  f"{claim.get('measured')}{band_s} (paper: "
                  f"{claim.get('paper') or '-'})")
        elif claim["status"] == "skipped" and claim["id"] not in unrun:
            print(f"  [skip] {claim['id']}: {claim.get('reason')}")
    if unrun:
        print(f"  [skip] {len(unrun)} claim(s) need a section this "
              f"campaign did not run")
    for table in doc.get("figure_tables", []):
        print()
        if table.get("reason"):
            print(f"{table['id']}: skipped ({table['reason']})")
            continue
        header, rows = figure_table_cells(table)
        text = TextTable(f"{table['source']}: {table['title']}", header)
        for row in rows:
            text.add_row(row)
        print(text)


def _cmd_fidelity_run(args) -> int:
    sections = None
    if args.sections:
        sections = [s.strip() for s in args.sections.split(",") if s.strip()]
    doc = _fidelity_campaign(args, args.scale, args.seed, sections)
    _print_fidelity_summary(doc)
    if args.out:
        out = Path(args.out)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"export : {out}")
    if args.md:
        md = Path(args.md)
        if md.parent != Path(""):
            md.parent.mkdir(parents=True, exist_ok=True)
        md.write_text(render_markdown(doc), encoding="utf-8")
        print(f"report : {md}")
    return 0


def _cmd_fidelity_check(args) -> int:
    base = load_fidelity_export(args.baseline)
    threshold = parse_threshold(args.threshold)
    if args.new:
        new = load_fidelity_export(args.new)
    else:
        params = base.get("params", {})
        sections = [s for s in base.get("sections", []) if s != "tables"]
        new = _fidelity_campaign(
            args,
            float(params.get("scale", 2e-4)),
            int(params.get("seed", 2003)),
            sections or None,
        )
    diff = diff_exports(base, new, threshold)
    print(diff.render())
    return 1 if diff.gate_regressions else 0


def _cmd_lint(args) -> int:
    if args.list_rules:
        for rule in RULES:
            scopes = ", ".join(rule.scopes) if rule.scopes else "everywhere"
            print(f"{rule.id}  {rule.title}")
            print(f"        scope: {scopes}")
            print(f"        {rule.rationale}")
        return 0
    rules = None
    if args.rule:
        rules = [r.strip() for spec in args.rule for r in spec.split(",")
                 if r.strip()]
    baseline = Path(args.baseline) if args.baseline else None
    if args.write_baseline:
        # Regenerate against the *unbaselined* findings so the new file
        # is complete, not a delta on top of the old one.
        report = lint_paths(args.paths, rules=rules, flow=args.flow)
        write_baseline(report.findings, Path(args.write_baseline), Path.cwd())
        print(f"wrote {len(report.findings)} entr(y/ies) to "
              f"{args.write_baseline} — fill in every reason before use")
        return 0
    report = lint_paths(args.paths, rules=rules, baseline=baseline,
                        flow=args.flow)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    elif args.format == "sarif":
        from .lint.sarif import render_sarif

        print(json.dumps(render_sarif(report), indent=2))
    else:
        print(report.render_text())
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _checked("run", lambda: _cmd_run(args))
        if args.command == "diff":
            return _checked("diff", lambda: _cmd_diff(args))
        if args.command == "trace":
            return _checked("trace", lambda: _cmd_trace(args))
        if args.command == "explain":
            return _checked("explain", lambda: _cmd_explain(args))
        if args.command == "lint":
            return _checked("lint", lambda: _cmd_lint(args))
        if args.command == "cache":
            if args.cache_command == "stats":
                return _checked("cache stats", lambda: _cmd_cache_stats(args))
            if args.cache_command == "prune":
                return _checked("cache prune", lambda: _cmd_cache_prune(args))
        if args.command == "perf":
            if args.perf_command == "record":
                return _checked("perf record", lambda: _cmd_perf_record(args))
            if args.perf_command == "compare":
                return _checked("perf compare", lambda: _cmd_perf_compare(args))
            if args.perf_command == "report":
                return _checked("perf report", lambda: _cmd_perf_report(args))
        if args.command == "fidelity":
            if args.fidelity_command == "run":
                return _checked("fidelity run",
                                lambda: _cmd_fidelity_run(args))
            if args.fidelity_command == "check":
                return _checked("fidelity check",
                                lambda: _cmd_fidelity_check(args))
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except ReproError as exc:
        # A run that started but could not finish: exit 1, never a
        # traceback (usage errors return 2 from the command handlers).
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
