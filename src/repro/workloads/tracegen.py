"""Dynamic trace generation: CFG walks bound to address patterns.

The generator is *stateless across calls*: the trace of iteration ``i``
of a region depends only on ``(master seed, region name, i)``.  That
invariant is what guarantees every machine configuration in an
experiment sees an identical workload — the cornerstone of the paper's
methodology (same binary, different memory systems).

Wrong-execution streams are derived here too:

* :meth:`TraceGenerator.wrong_path_addrs` synthesizes the loads that
  continue past a resolved-wrong branch: a geometric number of loads,
  each either *convergent* (an address the correct path will touch
  within the next few loads — control-flow reconvergence) or *polluting*
  (drawn from the region's designated off-path pattern);
* :meth:`TraceGenerator.wrong_thread_addrs` returns the loads of an
  extrapolated (beyond-the-exit) iteration — which the next invocation
  of the loop will genuinely execute, making them natural prefetches.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..common.errors import WorkloadError
from ..common.rng import StreamFactory, stable_hash32
from ..isa.cfg import WalkResult
from ..isa.encoding import IterationTrace
from .program import ParallelRegionSpec, SequentialRegionSpec

__all__ = ["TraceGenerator", "code_base_for"]

#: Instructions per 64-byte I-cache block (4-byte fixed-width encoding).
_INSTR_PER_IBLOCK = 16

#: Occurrence-space offset for pollution draws, so they never collide
#: with correct-path occurrence indices of the same pattern.
_POLLUTION_OCC_BASE = 1 << 20


def code_base_for(region_name: str) -> int:
    """A stable, per-region instruction-space base address.

    Code lives high above the data heap so I- and D-footprints never
    alias in the shared L2.
    """
    return (1 << 40) | (stable_hash32(region_name) << 20)


class TraceGenerator:
    """Produces reproducible dynamic traces for program regions."""

    #: Entries kept in the small chunk-trace cache (a chunk's trace is
    #: needed twice: once as lookahead for wrong-path injection in the
    #: previous chunk, once as the chunk's own replay).
    _CACHE_SIZE = 8

    def __init__(self, streams: StreamFactory) -> None:
        self.streams = streams
        self._chunk_cache: "dict[tuple, IterationTrace]" = {}

    # ------------------------------------------------------------------
    # correct-path traces
    # ------------------------------------------------------------------

    def _bind(
        self,
        region: Union[ParallelRegionSpec, SequentialRegionSpec],
        walk: WalkResult,
        index: int,
    ) -> IterationTrace:
        """Bind a CFG walk's memory slots to concrete addresses."""
        patterns = region.patterns
        occ_counts: dict = {}
        n_mem = len(walk.mem_ops)
        load_addrs: List[int] = []
        load_pos: List[int] = []
        store_addrs: List[int] = []
        store_pos: List[int] = []
        tstore: List[bool] = []
        for pos, pattern_name, is_store, is_tstore in walk.mem_ops:
            occ = occ_counts.get(pattern_name, 0)
            occ_counts[pattern_name] = occ + 1
            addr = patterns[pattern_name].addr(index, occ)
            if is_store:
                store_addrs.append(addr)
                store_pos.append(pos)
                tstore.append(is_tstore)
            else:
                load_addrs.append(addr)
                load_pos.append(pos)
        branches = walk.branches
        n_br = len(branches)
        b_pos = np.empty(n_br, dtype=np.int64)
        b_pc = np.empty(n_br, dtype=np.int64)
        b_taken = np.empty(n_br, dtype=bool)
        for i, (pos, pc, taken) in enumerate(branches):
            b_pos[i] = pos
            b_pc[i] = pc
            b_taken[i] = taken
        stage_split = getattr(region, "stage_split", None)
        kwargs = {}
        if stage_split is not None:
            kwargs["stage_split"] = stage_split
            kwargs["n_forward_values"] = region.n_forward_values
        return IterationTrace(
            n_instr=walk.n_instr,
            mix=walk.mix,
            load_addrs=np.asarray(load_addrs, dtype=np.int64),
            load_pos=np.asarray(load_pos, dtype=np.int64),
            store_addrs=np.asarray(store_addrs, dtype=np.int64),
            store_pos=np.asarray(store_pos, dtype=np.int64),
            tstore_mask=np.asarray(tstore, dtype=bool),
            branch_pcs=b_pc,
            branch_pos=b_pos,
            branch_taken=b_taken,
            **kwargs,
        )

    def iteration_trace(
        self, region: ParallelRegionSpec, global_iter: int
    ) -> IterationTrace:
        """The correct-path trace of one parallel-loop iteration."""
        rng = self.streams.fresh(f"it:{region.name}:{global_iter}")
        walk = region.cfg.walk(rng)
        return self._bind(region, walk, global_iter)

    def chunk_trace(
        self, region: SequentialRegionSpec, global_chunk: int
    ) -> IterationTrace:
        """The trace of one sequential-region chunk (cached, small LRU)."""
        key = (region.name, global_chunk)
        cached = self._chunk_cache.get(key)
        if cached is not None:
            return cached
        rng = self.streams.fresh(f"sq:{region.name}:{global_chunk}")
        walk = region.cfg.walk(rng)
        trace = self._bind(region, walk, global_chunk)
        if len(self._chunk_cache) >= self._CACHE_SIZE:
            self._chunk_cache.pop(next(iter(self._chunk_cache)))
        self._chunk_cache[key] = trace
        return trace

    # ------------------------------------------------------------------
    # wrong execution (§3.1)
    # ------------------------------------------------------------------

    def wrong_path_addrs(
        self,
        region: Union[ParallelRegionSpec, SequentialRegionSpec],
        trace: IterationTrace,
        branch_idx: int,
        global_iter: int,
        future_loads: Optional[np.ndarray] = None,
    ) -> List[int]:
        """Loads issued down the wrong path of mispredicted branch ``branch_idx``.

        Only called after the branch has *resolved* as mispredicted —
        these are the extra loads the ``wp`` configurations allow
        (Figure 3's loads C and D), not the pre-resolution speculative
        loads that every configuration already issues.

        ``future_loads`` extends the convergence pool past the end of
        this trace's own load stream: a deeply speculating core's wrong
        path runs tens of instructions ahead, reaching loads of the
        *following* code (the next sequential chunk) — exactly the
        fresh, soon-needed blocks whose prefetch the WEC captures.
        """
        prof = region.wrong_exec
        if prof.wp_max_loads == 0 or prof.wp_mean_loads <= 0:
            return []
        rng = self.streams.fresh(f"wp:{region.name}:{global_iter}:{branch_idx}")
        k = int(rng.geometric(min(1.0, 1.0 / prof.wp_mean_loads)))
        k = min(k, prof.wp_max_loads)
        if k <= 0:
            return []
        addrs: List[int] = []
        next_load = int(trace.branch_next_load[branch_idx])
        own_loads = trace.load_addrs
        n_own = trace.n_loads
        n_ext = n_own + (len(future_loads) if future_loads is not None else 0)
        pollution = (
            region.patterns[region.pollution_pattern]
            if region.pollution_pattern is not None
            else None
        )
        # Convergence is an *episode-level* outcome: either the wrong
        # path reconverges quickly and executes the genuinely upcoming
        # loads — consecutively, as the real code would — or it diverges
        # and wanders off-path data until the redirect.
        convergent = rng.random() < prof.p_convergent and next_load < n_ext
        if convergent:
            skip = int(rng.integers(0, max(1, prof.wp_lookahead // 4)))
            start = next_load + skip
            for idx in range(start, min(start + k, n_ext)):
                if idx < n_own:
                    addrs.append(int(own_loads[idx]))
                else:
                    addrs.append(int(future_loads[idx - n_own]))
        elif pollution is not None:
            for j in range(k):
                occ = _POLLUTION_OCC_BASE + branch_idx * 64 + j
                addrs.append(pollution.addr(global_iter, occ))
        elif n_own:
            # No pollution pattern registered: touch far-future loads
            # (pure convergence model).
            start = min(next_load + prof.wp_lookahead, n_own - 1)
            for idx in range(start, min(start + k, n_own)):
                addrs.append(int(own_loads[idx]))
        return addrs

    def wrong_thread_addrs(
        self, region: ParallelRegionSpec, global_iter: int
    ) -> np.ndarray:
        """Loads a wrong thread executes for extrapolated ``global_iter``.

        The iteration is generated exactly as a real future iteration
        would be (same seed path), then truncated to the fraction the
        wrong thread completes before killing itself.
        """
        prof = region.wrong_exec
        if prof.wth_fraction <= 0.0:
            return np.empty(0, dtype=np.int64)
        trace = self.iteration_trace(region, global_iter)
        n = int(round(trace.n_loads * prof.wth_fraction))
        return trace.load_addrs[:n]

    # ------------------------------------------------------------------
    # instruction fetch
    # ------------------------------------------------------------------

    def ifetch_blocks(
        self,
        region: Union[ParallelRegionSpec, SequentialRegionSpec],
        n_instr: int,
        iblock_size: int = 64,
    ) -> np.ndarray:
        """Instruction-block addresses fetched while executing ``n_instr``.

        The body's code footprint is walked cyclically — a loop body
        re-fetches the same blocks every iteration, so after warm-up the
        L1I hit rate is near 1 (as in the paper, whose focus is the
        D-cache).
        """
        count = max(1, n_instr // _INSTR_PER_IBLOCK)
        base = code_base_for(region.name)
        footprint_blocks = max(1, region.code_footprint // iblock_size)
        offsets = (np.arange(count, dtype=np.int64) % footprint_blocks) * iblock_size
        return base + offsets

    # ------------------------------------------------------------------
    # sizing helpers
    # ------------------------------------------------------------------

    def estimate_iteration_cost(
        self,
        region: Union[ParallelRegionSpec, SequentialRegionSpec],
        n_samples: int = 16,
    ) -> float:
        """Mean dynamic instructions per CFG walk (for workload sizing)."""
        if n_samples < 1:
            raise WorkloadError("need at least one sample")
        rng = self.streams.fresh(f"est:{region.name}")
        total = 0
        for _ in range(n_samples):
            total += region.cfg.walk(rng).n_instr
        return total / n_samples
