"""Top-level simulation driver: run one benchmark on one machine.

This is the main public entry point::

    from repro import run_simulation, named_config

    result = run_simulation("181.mcf", named_config("wth-wp-wec"))
    base = run_simulation("181.mcf", named_config("orig"))
    print(result.relative_speedup_pct_vs(base))

Either engine builds its machine and hands it to the region loop both
share, :func:`repro.sim.results.run_regions`;
:meth:`repro.sim.results.SimResult.from_counters` then checks the
machine's counter dump against the run identities and makes the result
from it and the loop's cycles.
"""

from __future__ import annotations

from typing import Optional, Union

from ..common.config import MachineConfig, SimParams
from ..common.errors import ConfigError
from ..common.rng import StreamFactory
from ..obs.tracer import IntervalMetrics
from ..sta.machine import Machine
from ..sta.scheduler import Scheduler
from ..workloads.benchmarks import build_benchmark
from ..workloads.program import Program
from ..workloads.tracegen import TraceGenerator
from .fast import run_program_fast
from .results import SimResult, run_regions

__all__ = ["ENGINES", "OBSERVER_POLICY_MSG", "run_simulation", "run_program"]

#: Recognised simulation engines.  ``oracle`` is the reference
#: event-level interpreter below; ``fast`` is the compiled trace-replay
#: engine in :mod:`repro.sim.fast`, bit-identical on results but
#: without event-level observer hooks.
ENGINES = ("oracle", "fast")

#: The one observer/engine policy (docs/OBSERVABILITY.md, "Engines and
#: observers"): both event-level observers — the tracer and the
#: attribution collector — require the oracle interpreter, and asking
#: the fast engine to honour one is always the same loud
#: :class:`ConfigError`, never a warning or a silent fallback.
#: ``{names}`` lists the active observers.
OBSERVER_POLICY_MSG = (
    "engine='fast' has no event-level observer hooks, but {names} "
    "is/are active; re-run with --engine oracle (engine='oracle' / "
    "REPRO_ENGINE=oracle) to keep the observer(s), or drop them to "
    "keep the fast engine"
)


def run_simulation(
    benchmark: Union[str, Program],
    config: MachineConfig,
    params: SimParams = SimParams(),
    tracer=None,
    profiler=None,
    attrib=None,
    engine: Optional[str] = None,
) -> SimResult:
    """Simulate ``benchmark`` (name or prebuilt program) on ``config``.

    When given a name the benchmark model is built at ``params.scale``;
    passing a :class:`Program` lets callers reuse one across configs
    (they are stateless, so this is purely a construction-time saving).

    ``tracer`` is an optional :mod:`repro.obs` sink (RingBufferTracer,
    IntervalMetrics, ...).  It is deliberately *not* part of
    :class:`SimParams`: params are hashed into the sweep executor's
    result-cache keys and shipped to worker processes, and a stateful
    tracer belongs in neither.  Tracing never perturbs simulated timing
    or the RNG streams, so traced and untraced runs produce identical
    results.

    ``profiler`` is an optional :class:`~repro.obs.hostprof.HostProfiler`
    collecting *host* wall-clock attribution (which simulator component
    the real time went to).  Like the tracer it never touches simulated
    state, so profiled runs are bit-identical to unprofiled ones.

    ``attrib`` is an optional
    :class:`~repro.obs.attrib.AttributionCollector` tagging every fill
    with its provenance and tracking block lifetimes (fill → first
    correct use → eviction).  Same discipline as the tracer: out of
    hashed params, read-only on sim state, bit-identical results; its
    summary lands on :attr:`SimResult.attribution`.

    ``engine`` picks the implementation: ``"oracle"`` (the default, and
    what ``None`` means) is the event-level interpreter; ``"fast"`` is
    the compiled trace-replay engine, bit-identical on every
    :class:`SimResult` field but without event-level observer hooks.
    The driver never reads the environment (results are cached under
    config/params fingerprints): the ``REPRO_ENGINE`` knob is resolved
    by the executor and the CLI and passed down explicitly.
    """
    if isinstance(benchmark, str):
        program = build_benchmark(benchmark, scale=params.scale)
    else:
        program = benchmark
    return run_program(program, config, params, tracer=tracer,
                       profiler=profiler, attrib=attrib, engine=engine)


def run_program(
    program: Program,
    config: MachineConfig,
    params: SimParams = SimParams(),
    tracer=None,
    profiler=None,
    attrib=None,
    engine: Optional[str] = None,
) -> SimResult:
    """Simulate a prebuilt :class:`Program` on ``config``.

    Either engine releases its machine when the run returns or raises
    (:meth:`Machine.release`, and
    :meth:`~repro.sim.fast.engine._FastMachine.release` for the fast
    one).  Reference counting then frees the run's caches, shared L2
    and collectors at once, instead of leaving them as cyclic garbage
    for a full collection.
    """
    if engine is None:
        engine = "oracle"
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r} (expected one of {', '.join(ENGINES)})"
        )
    if engine == "fast":
        # One policy for every event-level observer (OBSERVER_POLICY_MSG
        # above): tracer and attrib always raise the same ConfigError
        # naming the --engine oracle escape hatch.
        blockers = [
            name
            for name, obs in (("tracer", tracer), ("attrib", attrib))
            if obs is not None
        ]
        if blockers:
            raise ConfigError(
                OBSERVER_POLICY_MSG.format(names=", ".join(blockers))
            )
        # The host profiler never touches sim state, so both engines
        # take it.
        return run_program_fast(program, config, params, profiler=profiler)
    machine_tracer = tracer
    if profiler is not None and tracer is not None:
        # Route the machine's emits through a timing proxy so tracing
        # cost is attributed to "tracer.emit" instead of the component
        # sections; the caller keeps its direct tracer reference.
        machine_tracer = profiler.wrap_tracer(tracer)
    machine = Machine(config, params, tracer=machine_tracer,
                      profiler=profiler, attrib=attrib)
    tracegen = TraceGenerator(StreamFactory(params.seed))
    scheduler = Scheduler(machine, tracegen)
    try:
        cycles = run_regions(program, params, scheduler, machine,
                             profiler=profiler, attrib=attrib)
        result = SimResult.from_counters(
            program, config, params, cycles, machine.collect_stats()
        )
    finally:
        machine.release()
    if tracer is not None:
        metrics = getattr(tracer, "metrics", None)
        if metrics is None and isinstance(tracer, IntervalMetrics):
            metrics = tracer
        if metrics is not None:
            result.interval_series = metrics.series()
    if attrib is not None:
        result.attribution = attrib.summary(instructions=result.instructions)
    return result
