"""Trace compilation for the fast engine.

The oracle regenerates every iteration trace from scratch: a fresh RNG
stream, a Python CFG walk, per-occurrence address binding, and a numpy
argsort to merge the event streams.  Almost all of that is recomputable
structure:

* a CFG walk is fully determined by its branch decisions, so everything
  position-shaped (event interleave, per-pattern occurrence counts,
  instruction mix, reconvergence anchors) is memoized per *path* — the
  tuple of taken bits — and shared by every iteration that takes the
  same path through the region body;
* bound traces are memoized per ``(seed, iteration)``, which both makes
  the oracle's trace-sharing patterns (wrong threads re-deriving future
  iterations, lookahead into the next sequential chunk) free *and* lets
  every configuration of a sweep grid replay the identical workload
  without regenerating it;
* binding works per region invocation (:meth:`CompiledRegion.trace_range`):
  the walk streams of every index the memo misses are seeded in one
  batch, the indices are grouped by path, and each (path, pattern) pair
  is bound by one numpy call over a grid of the group's iterations by
  the pattern's occurrences (the splitmix64 mixer, strided/pointer-chase
  indexing and the hot/cold split all map to exact uint64/float64 array
  expressions).  :meth:`CompiledRegion.trace` sends a lone miss through
  the same binder;
* the wrong-path bursts of an invocation are seeded in one batch too
  (:meth:`CompiledRegion.seed_wrong_paths`), once the engine knows
  which branches mispredict.

Bound addresses are held compactly: a trace's loads and stores are
``array('q')`` copies of the binder's int64 buffers, its target stores
a tuple, and a wrong-path burst an ``array('q')``; every empty sequence
is the shared ``()``.

All of it lives in one :class:`ProgramMemo` per ``Program``
(:func:`program_memo`), held in a ``WeakKeyDictionary`` keyed by the
program: sweep grids that reuse one program across configurations hit
the memo, forked sweep workers inherit it, and it is freed with its
program.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...common.errors import WorkloadError
from ...isa.cfg import MAX_BLOCKS_PER_WALK
from ...isa.encoding import EV_BRANCH, EV_LOAD, EV_STORE, EV_TSTORE
from ...workloads.patterns import (
    AddressPattern,
    HotColdPattern,
    PointerChasePattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
)
from ...workloads.program import ParallelRegionSpec, Program, SequentialRegionSpec
from ...workloads.tracegen import code_base_for
from .streams import FastStreamFactory

__all__ = ["CompiledRegion", "FastTrace", "ProgramMemo", "program_memo"]

RegionSpec = Union[ParallelRegionSpec, SequentialRegionSpec]

_M64 = (1 << 64) - 1
_C1 = 0x9E3779B97F4A7C15
_C2 = 0xBF58476D1CE4E5B9
_C3 = 0x94D049BB133111EB

#: I-fetch block size: 64 bytes, like the L1I across the config ladder;
#: the engine checks this before using compiled code block numbers.
L1_BLOCK_BITS = 6

#: Upper bound on memoized traces per region (safety valve for huge
#: runs; beyond it traces are rebuilt on demand instead of cached).
_MAX_TRACES = 1 << 17

#: Upper bound on memoized paths per region.
_MAX_PATHS = 1 << 14


class _CompiledBlock:
    """Static per-block data needed to replay walk decisions quickly."""

    __slots__ = ("p_eff", "taken_idx", "fall_idx", "next_idx")

    def __init__(self, p_eff, taken_idx, fall_idx, next_idx):
        self.p_eff = p_eff
        self.taken_idx = taken_idx
        self.fall_idx = fall_idx
        self.next_idx = next_idx


class _BindEntry:
    """Per-pattern scatter plan for one path's memory operations."""

    __slots__ = ("pattern", "occ", "lsel", "lidx", "ssel", "sidx")

    def __init__(self, pattern, occ, lsel, lidx, ssel, sidx):
        self.pattern = pattern
        self.occ = occ          # uint64 occurrence indices, walk order
        self.lsel = lsel        # positions within occ that are loads
        self.lidx = lidx        # -> index into the trace's load array
        self.ssel = ssel        # positions within occ that are stores
        self.sidx = sidx        # -> index into the trace's store array


class PathData:
    """Everything about one walk that is independent of the iteration."""

    __slots__ = (
        "key", "n_instr", "n_loads", "n_stores", "events", "branch_pcs",
        "branch_taken", "branch_next_load", "tstore_idx", "mix",
        "bind", "ifetch_count",
    )

    def __init__(self, key, walk, region):
        self.key = key
        self.n_instr = walk.n_instr
        self.mix = walk.mix
        loads: List[Tuple[int, str]] = []
        stores: List[Tuple[int, str, bool]] = []
        load_pos: List[int] = []
        store_pos: List[int] = []
        for pos, pattern_name, is_store, is_tstore in walk.mem_ops:
            if is_store:
                stores.append((pos, pattern_name, is_tstore))
                store_pos.append(pos)
            else:
                loads.append((pos, pattern_name))
                load_pos.append(pos)
        self.n_loads = len(loads)
        self.n_stores = len(stores)
        self.branch_pcs = [pc for _, pc, _ in walk.branches]
        self.branch_taken = [bool(t) for _, _, t in walk.branches]
        self.tstore_idx = [i for i, (_, _, t) in enumerate(stores) if t]
        branch_pos = np.asarray([p for p, _, _ in walk.branches], dtype=np.int64)
        lp = np.asarray(load_pos, dtype=np.int64)
        self.branch_next_load = (
            np.searchsorted(lp, branch_pos, side="left").astype(np.int64).tolist()
        )
        # Merged event order: loads, then stores, then branches, stably
        # sorted by stream position — identical to merged_events().
        n = self.n_loads + self.n_stores + len(walk.branches)
        pos = np.empty(n, dtype=np.int64)
        kinds = np.empty(n, dtype=np.int8)
        idxs = np.empty(n, dtype=np.int64)
        a, b = 0, self.n_loads
        pos[a:b] = lp
        kinds[a:b] = EV_LOAD
        idxs[a:b] = np.arange(self.n_loads)
        a, b = b, b + self.n_stores
        pos[a:b] = np.asarray(store_pos, dtype=np.int64)
        kinds[a:b] = [EV_TSTORE if t else EV_STORE for _, _, t in stores]
        idxs[a:b] = np.arange(self.n_stores)
        a, b = b, b + len(walk.branches)
        pos[a:b] = branch_pos
        kinds[a:b] = EV_BRANCH
        idxs[a:b] = np.arange(len(walk.branches))
        order = np.argsort(pos, kind="stable")
        self.events: List[Tuple[int, int]] = list(
            zip(kinds[order].tolist(), idxs[order].tolist())
        )
        # Per-pattern occurrence plan.  Occurrences count up in dynamic
        # (mem_ops) order per pattern, exactly as the oracle binds them.
        per: Dict[str, List[List[int]]] = {}
        occ_counts: Dict[str, int] = {}
        li = si = 0
        for pos_, pattern_name, is_store, _ in walk.mem_ops:
            entry = per.setdefault(pattern_name, [[], [], [], [], []])
            occ = occ_counts.get(pattern_name, 0)
            occ_counts[pattern_name] = occ + 1
            k = len(entry[0])
            entry[0].append(occ)
            if is_store:
                entry[3].append(k)
                entry[4].append(si)
                si += 1
            else:
                entry[1].append(k)
                entry[2].append(li)
                li += 1
        self.bind: List[_BindEntry] = [
            _BindEntry(
                region.patterns[name],
                np.asarray(e[0], dtype=np.uint64),
                np.asarray(e[1], dtype=np.intp),
                np.asarray(e[2], dtype=np.intp),
                np.asarray(e[3], dtype=np.intp),
                np.asarray(e[4], dtype=np.intp),
            )
            for name, e in per.items()
        ]
        self.ifetch_count = max(1, self.n_instr // 16)


class FastTrace:
    """A fully bound iteration trace: ``array('q')`` addresses, tuple targets."""

    __slots__ = ("path", "load_addrs", "store_addrs", "targets")

    def __init__(self, path, load_addrs, store_addrs, targets):
        self.path = path
        self.load_addrs = load_addrs
        self.store_addrs = store_addrs
        self.targets = targets


def _vec_addrs(pattern: AddressPattern, iters: np.ndarray,
               occ: np.ndarray) -> np.ndarray:
    """Bit-exact ``pattern.addr`` over a grid: one row per iteration.

    ``iters`` is an int64 column (shape ``(n, 1)``), ``occ`` a row of
    uint64 occurrence indices; the result is the ``(n, len(occ))`` int64
    array of ``pattern.addr(iters[i], occ[j])``.
    """
    if isinstance(pattern, (SequentialPattern, StridedPattern)):
        elem = (iters * pattern.per_iter + occ.astype(np.int64)) % pattern._n_elems
        return pattern.base + elem * pattern.stride
    if isinstance(pattern, PointerChasePattern):
        pos = (iters * pattern.per_iter + occ.astype(np.int64)) % pattern.n_nodes
        return pattern.base + pattern._order[pos] * pattern.node_size
    if isinstance(pattern, RandomPattern):
        h = _vec_mix64(iters, occ, pattern.salt)
        slot = (h % np.uint64(pattern._n_slots)).astype(np.int64)
        return pattern.base + slot * pattern.granule
    if isinstance(pattern, HotColdPattern):
        h = _vec_mix64(iters, occ, pattern.salt)
        hot = ((h & np.uint64(0xFFFF)).astype(np.float64) / 65536.0) < pattern.p_hot
        hi = (h >> np.uint64(16))
        hot_slot = (hi % np.uint64(pattern._hot_slots)).astype(np.int64)
        cold_slot = (hi % np.uint64(pattern._cold_slots)).astype(np.int64)
        return np.where(
            hot,
            pattern.base + hot_slot * pattern.granule,
            pattern.base + pattern.hot_size + cold_slot * pattern.granule,
        )
    # Unknown pattern subclass: fall back to the exact scalar rule.
    return np.asarray(
        [[pattern.addr(i, o) for o in occ.tolist()] for i in iters[:, 0].tolist()],
        dtype=np.int64,
    ).reshape(len(iters), len(occ))


def _vec_mix64(iters: np.ndarray, occ: np.ndarray, c: int) -> np.ndarray:
    """splitmix64 finalizer over (iters[i], occ[j], c), wrapping at 64 bits."""
    const = iters.astype(np.uint64) * np.uint64(_C1) + np.uint64(
        ((c * _C3) + _C1) & _M64
    )
    x = occ * np.uint64(_C2) + const
    x ^= x >> np.uint64(30)
    x *= np.uint64(_C2)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_C3)
    x ^= x >> np.uint64(31)
    return x


class CompiledRegion:
    """Compiled static structure + per-seed trace caches for one region."""

    def __init__(self, region: RegionSpec) -> None:
        self.region = region
        self.is_parallel = isinstance(region, ParallelRegionSpec)
        cfg = region.cfg
        names = list(cfg.blocks)
        index = {name: i for i, name in enumerate(names)}
        self.entry_idx = index[cfg.entry]
        blocks: List[_CompiledBlock] = []
        for name in names:
            b = cfg.blocks[name]
            if b.branch is not None:
                br = b.branch
                p = br.taken_prob
                if br.noise > 0.0:
                    p = p * (1.0 - br.noise) + 0.5 * br.noise
                blocks.append(_CompiledBlock(
                    p,
                    index[br.taken_target] if br.taken_target is not None else -1,
                    index[br.fallthrough] if br.fallthrough is not None else -1,
                    -1,
                ))
            else:
                blocks.append(_CompiledBlock(
                    None, -1, -1,
                    index[b.next_block] if b.next_block is not None else -1,
                ))
        self.blocks = blocks
        self.paths: Dict[Tuple[bool, ...], PathData] = {}
        # iteration -> FastTrace, (iteration, branch) -> burst, per seed
        self.traces: Dict[int, Dict[int, FastTrace]] = {}
        self.wp_addrs: Dict[int, Dict[Tuple[int, int], Sequence[int]]] = {}
        # I-fetch geometry (shared 64-byte block size with the L1I).
        self.ifetch_base_block = code_base_for(region.name) >> L1_BLOCK_BITS
        self.ifetch_footprint = max(1, region.code_footprint // 64)
        self._prefix = "it:" if self.is_parallel else "sq:"

    # -- walking -------------------------------------------------------

    def _walk_key(self, gen) -> Tuple[bool, ...]:
        """Replay branch decisions only, buffering the double stream.

        Overdraws from the stream in chunks; the values consumed for
        decision *k* are identical to the oracle's scalar draws.
        """
        blocks = self.blocks
        cur = self.entry_idx
        decisions: List[bool] = []
        buf = gen.random(16)
        nbuf = 16
        bi = 0
        steps = 0
        while cur >= 0:
            steps += 1
            if steps > MAX_BLOCKS_PER_WALK:
                raise WorkloadError(
                    f"CFG walk exceeded {MAX_BLOCKS_PER_WALK} blocks; "
                    f"check loop back-edge probabilities"
                )
            blk = blocks[cur]
            p = blk.p_eff
            if p is None:
                cur = blk.next_idx
            else:
                if bi == nbuf:
                    buf = gen.random(64)
                    nbuf = 64
                    bi = 0
                taken = bool(buf[bi] < p)
                bi += 1
                decisions.append(taken)
                cur = blk.taken_idx if taken else blk.fall_idx
        return tuple(decisions)

    # -- traces --------------------------------------------------------

    def trace(self, streams: FastStreamFactory, seed: int, index: int) -> FastTrace:
        """The bound trace of iteration/chunk ``index`` (memoized)."""
        per_seed = self.traces.setdefault(seed, {})
        trace = per_seed.get(index)
        if trace is None:
            (trace,) = self._bind(streams, per_seed, [index])
        return trace

    def trace_range(self, streams: FastStreamFactory, seed: int,
                    lo: int, hi: int) -> List[FastTrace]:
        """The bound traces of indices ``lo .. hi-1``: one invocation's.

        Every index the memo misses is bound in one batch.
        """
        per_seed = self.traces.setdefault(seed, {})
        get = per_seed.get
        out = [get(index) for index in range(lo, hi)]
        missing = [k for k, trace in enumerate(out) if trace is None]
        if missing:
            bound = self._bind(streams, per_seed, [lo + k for k in missing])
            for k, trace in zip(missing, bound):
                out[k] = trace
        return out

    def _bind(self, streams: FastStreamFactory, per_seed: Dict[int, FastTrace],
              indices: List[int]) -> List[FastTrace]:
        """Walk and bind ``indices``; memoize them while the memo has room.

        The walks' streams are seeded in one batch.  The indices are
        then grouped by path, and each (path, pattern) pair is bound by
        one ``_vec_addrs`` call over the group's iterations.
        """
        prefix = f"{self._prefix}{self.region.name}:"
        paths = self.paths
        groups: Dict[PathData, List[int]] = {}
        gens = streams.fresh_batch([f"{prefix}{index}" for index in indices])
        for k, gen in enumerate(gens):
            key = self._walk_key(gen)
            path = paths.get(key)
            if path is None:
                # Cold path: rerun the oracle's own walker on a second
                # copy of the same stream, so path structure is exact by
                # construction rather than by transliteration.
                walk = self.region.cfg.walk(streams.fresh(f"{prefix}{indices[k]}"))
                path = PathData(key, walk, self.region)
                if len(paths) < _MAX_PATHS:
                    paths[key] = path
            groups.setdefault(path, []).append(k)
        out: List[Optional[FastTrace]] = [None] * len(indices)
        for path, ks in groups.items():
            iters = np.array([indices[k] for k in ks], dtype=np.int64)[:, None]
            la = np.empty((len(ks), path.n_loads), dtype=np.int64)
            sa = np.empty((len(ks), path.n_stores), dtype=np.int64)
            for e in path.bind:
                vec = _vec_addrs(e.pattern, iters, e.occ)
                la[:, e.lidx] = vec[:, e.lsel]
                sa[:, e.sidx] = vec[:, e.ssel]
            targets = sa[:, path.tstore_idx].tolist() if path.tstore_idx else None
            for row, k in enumerate(ks):
                out[k] = FastTrace(
                    path,
                    array("q", la[row].tobytes()),
                    array("q", sa[row].tobytes()),
                    tuple(targets[row]) if targets is not None else (),
                )
        for index, trace in zip(indices, out):
            if len(per_seed) >= _MAX_TRACES:
                break
            per_seed[index] = trace
        return out

    # -- wrong execution ----------------------------------------------

    def wrong_path_addrs(
        self,
        streams: FastStreamFactory,
        seed: int,
        trace: FastTrace,
        branch_idx: int,
        index: int,
        future_loads: Optional[Sequence[int]],
    ) -> Sequence[int]:
        """Transliteration of ``TraceGenerator.wrong_path_addrs`` with a
        per-(iteration, branch) memo — valid because the injected loads
        depend only on the workload, never on machine configuration."""
        per_seed = self.wp_addrs.get(seed)
        if per_seed is None:
            per_seed = self.wp_addrs[seed] = {}
        memo_key = (index, branch_idx)
        addrs = per_seed.get(memo_key)
        if addrs is not None:
            return addrs
        prof = self.region.wrong_exec
        addrs = ()
        if prof.wp_max_loads != 0 and prof.wp_mean_loads > 0:
            rng = streams.fresh(f"wp:{self.region.name}:{index}:{branch_idx}")
            addrs = self._burst(rng, trace, branch_idx, index, future_loads)
        if len(per_seed) < _MAX_TRACES:
            per_seed[memo_key] = addrs
        return addrs

    def seed_wrong_paths(
        self,
        streams: FastStreamFactory,
        seed: int,
        sites: List[Tuple[FastTrace, int, int, Optional[Sequence[int]]]],
    ) -> None:
        """Memoize the bursts of ``sites`` in one batch.

        Each site is ``(trace, branch_idx, index, future_loads)``, the
        arguments :meth:`wrong_path_addrs` would get.  The streams of
        the bursts the memo lacks are seeded together, up to the memo's
        room; the rest are left to :meth:`wrong_path_addrs`.
        """
        prof = self.region.wrong_exec
        if prof.wp_max_loads == 0 or prof.wp_mean_loads <= 0:
            return
        per_seed = self.wp_addrs.setdefault(seed, {})
        todo = [site for site in sites if (site[2], site[1]) not in per_seed]
        del todo[max(0, _MAX_TRACES - len(per_seed)):]
        name = self.region.name
        gens = streams.fresh_batch(
            [f"wp:{name}:{index}:{branch_idx}" for _, branch_idx, index, _ in todo]
        )
        for (trace, branch_idx, index, future_loads), rng in zip(todo, gens):
            per_seed[(index, branch_idx)] = self._burst(
                rng, trace, branch_idx, index, future_loads
            )

    def _burst(self, rng, trace: FastTrace, branch_idx: int, index: int,
               future_loads: Optional[Sequence[int]]) -> Sequence[int]:
        """One wrong-path burst, drawn from its own fresh stream ``rng``."""
        region = self.region
        prof = region.wrong_exec
        k = int(rng.geometric(min(1.0, 1.0 / prof.wp_mean_loads)))
        k = min(k, prof.wp_max_loads)
        if k <= 0:
            return ()
        burst: List[int] = []
        path = trace.path
        next_load = path.branch_next_load[branch_idx]
        own_loads = trace.load_addrs
        n_own = path.n_loads
        n_ext = n_own + (len(future_loads) if future_loads is not None else 0)
        pollution = (
            region.patterns[region.pollution_pattern]
            if region.pollution_pattern is not None
            else None
        )
        convergent = rng.random() < prof.p_convergent and next_load < n_ext
        if convergent:
            skip = int(rng.integers(0, max(1, prof.wp_lookahead // 4)))
            start = next_load + skip
            for idx in range(start, min(start + k, n_ext)):
                if idx < n_own:
                    burst.append(own_loads[idx])
                else:
                    burst.append(future_loads[idx - n_own])
        elif pollution is not None:
            for j in range(k):
                occ = (1 << 20) + branch_idx * 64 + j
                burst.append(pollution.addr(index, occ))
        elif n_own:
            start = min(next_load + prof.wp_lookahead, n_own - 1)
            for idx in range(start, min(start + k, n_own)):
                burst.append(own_loads[idx])
        return array("q", burst) if burst else ()

    def wrong_thread_addrs(
        self, streams: FastStreamFactory, seed: int, index: int
    ) -> Sequence[int]:
        """Loads of extrapolated iteration ``index`` for a wrong thread."""
        prof = self.region.wrong_exec
        if prof.wth_fraction <= 0.0:
            return ()
        trace = self.trace(streams, seed, index)
        n = int(round(trace.path.n_loads * prof.wth_fraction))
        return trace.load_addrs[:n]


class ProgramMemo:
    """Everything the fast engine memoizes for one program.

    ``regions`` maps ``id(region)`` to the region's compiled form; the
    compiled form holds its region, so no other object can take that id
    while the entry lives.  ``branch_streams`` holds the branch-outcome
    streams :func:`repro.sim.fast.engine.run_program_fast` records,
    keyed by seed and branch geometry.
    """

    __slots__ = ("regions", "branch_streams", "__weakref__")

    def __init__(self) -> None:
        self.regions: Dict[int, CompiledRegion] = {}
        self.branch_streams: Dict[tuple, List[list]] = {}

    def compiled(self, region: RegionSpec) -> CompiledRegion:
        """The (memoized) compiled form of ``region``."""
        comp = self.regions.get(id(region))
        if comp is None:
            comp = self.regions[id(region)] = CompiledRegion(region)
        return comp


#: Program -> its memo.  Programs hash by identity, and nothing in a
#: memo refers back to its program, so an entry dies with its program.
_MEMOS: "weakref.WeakKeyDictionary[Program, ProgramMemo]" = (
    weakref.WeakKeyDictionary()
)


def program_memo(program: Program) -> ProgramMemo:
    """The memo of ``program``, created on first use."""
    memo = _MEMOS.get(program)
    if memo is None:
        memo = _MEMOS[program] = ProgramMemo()
    return memo
