#!/usr/bin/env python
"""Profile one simulation run (hpc-parallel guide: measure first).

Prints the cProfile hot spots of a single (benchmark, configuration)
simulation, so regressions in the replay loop are visible before they
cost minutes across a figure sweep.  The engine is the one ``repro run``
uses: ``$REPRO_ENGINE`` (``oracle`` or ``fast``, default ``oracle``).

Usage::

    REPRO_ENGINE=fast python tools/profile_run.py [benchmark] [config] [scale]
        [--seed N] [--top N] [--dump FILE] [--trace]

``--trace`` attaches a full RingBufferTracer, so the profile shows what
tracing itself costs relative to the untraced hot loop.  Only the
oracle can be traced: on the fast engine ``--trace`` exits 2 with the
driver's message, as do an unknown ``$REPRO_ENGINE``, benchmark or
configuration.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time

from repro import SimParams, build_benchmark, named_config, run_program
from repro.common.errors import ConfigError, WorkloadError
from repro.obs.tracer import IntervalMetrics, RingBufferTracer
from repro.sim.executor import default_engine


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("benchmark", nargs="?", default="181.mcf")
    p.add_argument("config", nargs="?", default="wth-wp-wec")
    p.add_argument("scale", nargs="?", type=float, default=2e-4)
    p.add_argument("--seed", type=int, default=2003)
    p.add_argument("--top", type=int, default=18,
                   help="rows in the cumulative-time table (default 18)")
    p.add_argument("--dump", metavar="FILE", default=None,
                   help="write raw pstats data to FILE (snakeviz-able)")
    p.add_argument("--trace", action="store_true",
                   help="attach a RingBufferTracer to measure trace overhead")
    return p


def main() -> int:
    args = build_parser().parse_args()
    try:
        return profile(args)
    except (ConfigError, WorkloadError) as exc:
        print(f"profile_run: {exc}", file=sys.stderr)
        return 2


def profile(args: argparse.Namespace) -> int:
    engine = default_engine()
    params = SimParams(seed=args.seed, scale=args.scale)
    program = build_benchmark(args.benchmark, args.scale)
    cfg = named_config(args.config)
    tracer = (
        RingBufferTracer(metrics=IntervalMetrics()) if args.trace else None
    )

    t0 = time.perf_counter()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_program(program, cfg, params, tracer=tracer,
                             engine=engine)
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0

    traced = " (traced)" if args.trace else ""
    print(f"{args.benchmark} on {args.config}, {engine} engine{traced}: "
          f"{result.total_cycles:.0f} simulated cycles, "
          f"{result.instructions} instructions, {wall:.2f}s wall")
    print(f"simulation rate: {result.instructions / wall / 1e3:.0f} "
          f"kinstr/s (timed instructions only)\n")
    stats = pstats.Stats(profiler)
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"raw profile written to {args.dump}\n")
    stats.sort_stats("cumulative").print_stats(args.top)
    print("--- by self time ---")
    stats.sort_stats("tottime").print_stats(max(args.top // 2, 6))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
