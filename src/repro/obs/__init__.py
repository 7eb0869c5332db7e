"""repro.obs — structured event tracing, interval metrics, trace export.

The observability subsystem threads a :class:`~repro.obs.tracer.Tracer`
handle through every simulator layer (scheduler, thread units, caches,
sidecar, L2, branch units).  The default is no tracer at all — hot paths
pay a single ``is not None`` test — while an attached
:class:`RingBufferTracer` records the timeline the paper's argument is
made of: wrong-path loads firing after branch resolution, wrong threads
prefetching the next invocation's working set, WEC hits chaining
next-line prefetches.

Quickstart::

    from repro import run_simulation, named_config
    from repro.obs import IntervalMetrics, RingBufferTracer
    from repro.obs.export import write_chrome_trace

    tracer = RingBufferTracer(metrics=IntervalMetrics(window=4096))
    result = run_simulation("181.mcf", named_config("wth-wp-wec"),
                            tracer=tracer)
    write_chrome_trace(tracer.events(), "trace.json",
                       interval_series=result.interval_series)
    # open trace.json in https://ui.perfetto.dev

Or from the command line::

    python -m repro trace 181.mcf wth-wp-wec --out trace.json

The **performance observatory** rides on the same layer: a persistent
run ledger (:mod:`repro.obs.ledger` — append-only JSONL under
``$REPRO_PERF_DIR``), a benchstat-style A/B comparison engine
(:mod:`repro.obs.compare` — bootstrap CIs, Mann-Whitney significance,
suite rollups) and host-side self-profiling
(:mod:`repro.obs.hostprof` — which simulator component the wall-clock
went to).  CLI surface: ``repro perf record | compare | report``.

**Provenance attribution** (:mod:`repro.obs.attrib`) is the third
pillar: an :class:`AttributionCollector` tags every fill into the
L1D / WEC / VC / prefetch sidecar with its provenance (correct demand,
wrong-path, wrong-thread, next-line prefetch, victim), tracks
block lifetimes fill → first correct use → eviction, and classifies
them useful / late / unused / polluting.  ``repro explain`` renders the
summary; ``repro explain --vs`` diffs two configs.

See ``docs/OBSERVABILITY.md`` for the event taxonomy, sampling
semantics, the Perfetto how-to, the performance-observatory guide and
the attribution model.
"""

from .attrib import (
    AttributionCollector,
    PROV_DEMAND,
    PROV_NAMES,
    PROV_NLP,
    PROV_VICTIM,
    PROV_WRONG_PATH,
    PROV_WRONG_THREAD,
    PROVENANCES,
    attribution_delta,
    explain_report,
    explain_vs_report,
)
from .compare import (
    ComparisonReport,
    MetricComparison,
    MetricDef,
    METRICS,
    compare_records,
    compare_samples,
    parse_threshold,
)
from .events import (
    CAT_ATTRIB,
    CAT_BRANCH,
    CAT_MEM,
    CAT_REGION,
    CAT_RING,
    CAT_THREAD,
    CAT_WEC,
    CATEGORIES,
    Event,
    KIND_CATEGORY,
    KIND_NAMES,
    event_to_dict,
)
from .export import (
    chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .hostprof import HostProfiler, peak_rss_kb
from .ledger import (
    Ledger,
    PerfRecord,
    default_perf_dir,
    load_records,
    validate_export,
    write_export,
)
from .tracer import IntervalMetrics, NullTracer, RingBufferTracer, Tracer

__all__ = [
    "AttributionCollector",
    "PROV_DEMAND",
    "PROV_NAMES",
    "PROV_NLP",
    "PROV_VICTIM",
    "PROV_WRONG_PATH",
    "PROV_WRONG_THREAD",
    "PROVENANCES",
    "attribution_delta",
    "explain_report",
    "explain_vs_report",
    "CAT_ATTRIB",
    "CAT_BRANCH",
    "CAT_MEM",
    "CAT_REGION",
    "CAT_RING",
    "CAT_THREAD",
    "CAT_WEC",
    "CATEGORIES",
    "Event",
    "KIND_CATEGORY",
    "KIND_NAMES",
    "event_to_dict",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "IntervalMetrics",
    "NullTracer",
    "RingBufferTracer",
    "Tracer",
    "ComparisonReport",
    "HostProfiler",
    "Ledger",
    "MetricComparison",
    "MetricDef",
    "METRICS",
    "PerfRecord",
    "compare_records",
    "compare_samples",
    "default_perf_dir",
    "load_records",
    "parse_threshold",
    "peak_rss_kb",
    "validate_export",
    "write_export",
]
