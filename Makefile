# Convenience targets for the WEC reproduction.
#
#   make test         tier-1 suite (unit/property/integration tests)
#   make lint         static determinism/invariant analysis over src/
#                     (rule catalog: docs/STATIC_ANALYSIS.md)
#   make bench-smoke  the campaign's Figure 11 section at tiny scale —
#                     fast CI probe; records to the perf ledger and
#                     leaves BENCH_smoke.json behind.  Runs serially by
#                     default (BENCH_JOBS=1): per-cell wall times feed
#                     the ledger, and worker processes oversubscribing
#                     the host's cores corrupt them (on a 1-core host,
#                     jobs=2 roughly doubles every recorded wall).  Set
#                     BENCH_JOBS=N on a host with N+ idle cores; the
#                     parallel executor path itself is covered by
#                     diff-smoke and the tier-1 tests.
#   make diff-smoke   oracle-vs-fast differential over the 45 distinct
#                     configurations of the fidelity campaign x six
#                     benchmarks x seeds 2003/7/42 at smoke scale (810
#                     cells, about a minute); exits non-zero on any
#                     counter mismatch
#   make perf-gate    bench-smoke + regression check vs the committed
#                     baseline (benchmarks/BENCH_baseline.json)
#   make fidelity-smoke  full fidelity campaign (fig08-fig17 + tables)
#                     at smoke scale on the fast engine, then a drift
#                     check against the committed smoke baseline
#                     (benchmarks/FIDELITY_smoke_baseline.json); exits
#                     non-zero on any regressed gate claim.  Leaves
#                     FIDELITY_smoke.json / FIDELITY_smoke.md behind
#                     (CI uploads them as artifacts).  The paper-scale
#                     campaign is `repro fidelity run` with defaults;
#                     its committed artifacts are
#                     benchmarks/FIDELITY_baseline.json + docs/FIDELITY.md.
#   make explain-smoke  attribution layer end-to-end at tiny scale:
#                     repro explain on the fig11 WEC-vs-plain pair
#                     (docs/OBSERVABILITY.md, "Attribution")
#   make bench-test   the repository benchmark's own tests (bench/):
#                     they fail when a layer the traced run wraps, or a
#                     memo it reads, no longer matches src/

PY ?= python
BENCH_JOBS ?= 1
export PYTHONPATH := src

.PHONY: test lint bench-smoke bench-test diff-smoke explain-smoke perf-gate fidelity-smoke

test:
	$(PY) -m pytest -x -q

lint:
	$(PY) -m repro lint src --flow --baseline lint-baseline.json

# Smoke scale 1e-4: cells must run >=10ms per engine or the recorded
# walls are dominated by single-shot scheduler jitter (the grid runs
# each cell exactly once) and engine comparisons drown in noise.
bench-smoke:
	rm -rf .perf-smoke
	$(PY) -m repro fidelity run --sections fig11 --scale 1e-4 --no-cache \
	--jobs $(BENCH_JOBS) --dir .perf-smoke
	$(PY) -m repro perf report --dir .perf-smoke --json BENCH_smoke.json

diff-smoke:
	$(PY) -m repro diff --scale 2e-5 --seeds 2003,7,42

bench-test:
	$(PY) -m pytest bench -q

explain-smoke:
	$(PY) -m repro explain 181.mcf wth-wp-wec --vs wth-wp \
	--scale 5e-5 --seed 7 --top 3

perf-gate: bench-smoke
	$(PY) -m repro perf compare benchmarks/BENCH_baseline.json \
	BENCH_smoke.json --threshold 10%

fidelity-smoke:
	rm -rf .perf-fidelity
	$(PY) -m repro fidelity run --scale 2e-5 --engine fast \
	--jobs $(BENCH_JOBS) --no-cache --dir .perf-fidelity \
	--out FIDELITY_smoke.json --md FIDELITY_smoke.md
	$(PY) -m repro fidelity check benchmarks/FIDELITY_smoke_baseline.json \
	--new FIDELITY_smoke.json
