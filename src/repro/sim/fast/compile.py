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
  the walk streams of every index the memo misses are drawn in bulk
  (their first 16 doubles, by :meth:`FastStreamFactory.raw_batch`),
  the walks step through the CFG together in numpy, one branch
  decision a step, and every memory slot of the batch's traces becomes
  an entry of one flat (iteration, occurrence, slot) list that each
  pattern binds with one numpy call (the splitmix64 mixer,
  strided/pointer-chase indexing and the hot/cold split all map to
  exact uint64/float64 array expressions).  A walk that needs more
  than 16 draws, and a batch too small for bulk draws to pay (a lone
  miss from :meth:`CompiledRegion.trace`, say), walks its own
  generator instead;
* the wrong-path bursts of an invocation are seeded in one batch too
  (:meth:`CompiledRegion.seed_wrong_paths`), once the engine knows
  which branches mispredict: each burst's length, convergence and skip
  come from its stream's first three raw outputs, except where numpy
  draws them in ways the bulk kernels do not reproduce.

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
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

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
from .streams import (
    GEOMETRIC_SEARCH_MIN,
    FastStreamFactory,
    geometric_search,
    lemire_bounded,
    raw_doubles,
)

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

#: Draws per stream the bulk walker steps through; a walk that takes
#: more branch decisions walks its own generator.  At cold-start (six
#: benchmarks at 2e-3, seed 2003) 171 of the 93,551 walks drawn in bulk
#: needed more.
_WALK_DRAWS = 16

#: Walks drawn and bound per pass.  Passes over a whole invocation
#: (cold-start batches reach 5,331 walks) raised the process's peak RSS
#: by ~0.6 MB with their draws and slot arrays, and saved no time.
_BIND_ROWS = 1024


class _CompiledBlock:
    """Static per-block data needed to replay walk decisions quickly."""

    __slots__ = ("p_eff", "taken_idx", "fall_idx", "next_idx")

    def __init__(self, p_eff, taken_idx, fall_idx, next_idx):
        self.p_eff = p_eff
        self.taken_idx = taken_idx
        self.fall_idx = fall_idx
        self.next_idx = next_idx


class _Replay:
    """A stream whose first doubles are drawn, as the oracle walker reads
    it: each ``random()`` call returns the next one."""

    __slots__ = ("random",)

    def __init__(self, doubles: np.ndarray) -> None:
        self.random = iter(doubles.tolist()).__next__


class PathData:
    """Everything about one walk that is independent of the iteration."""

    __slots__ = (
        "key", "n_instr", "n_loads", "n_stores", "events", "branch_pcs",
        "branch_taken", "branch_next_load", "n_targets", "mix",
        "slot_pattern", "slot_occ", "slot_target", "ifetch_count",
    )

    def __init__(self, key, walk, pattern_ids: Dict[str, int]):
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
        # Binding plan, one entry per memory slot (the loads, then the
        # stores): its pattern, its occurrence index and whether it is a
        # target store.  Occurrences count up in dynamic (mem_ops) order
        # per pattern, exactly as the oracle binds them.
        occ_counts: Dict[str, int] = {}
        plans: Tuple[List[tuple], List[tuple]] = ([], [])
        for _, pattern_name, is_store, is_tstore in walk.mem_ops:
            occ = occ_counts.get(pattern_name, 0)
            occ_counts[pattern_name] = occ + 1
            plans[is_store].append((pattern_ids[pattern_name], occ, is_tstore))
        slots = plans[0] + plans[1]
        self.slot_pattern = np.array([s[0] for s in slots], dtype=np.int16)
        self.slot_occ = np.array([s[1] for s in slots], dtype=np.uint64)
        self.slot_target = np.array([s[2] for s in slots], dtype=bool)
        self.n_targets = int(self.slot_target.sum())
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
    """Bit-exact ``pattern.addr`` over paired entries.

    ``iters`` is an int64 array and ``occ`` a uint64 array of the same
    length; the result is the int64 array of
    ``pattern.addr(iters[i], occ[i])``.
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
        [pattern.addr(i, o) for i, o in zip(iters.tolist(), occ.tolist())],
        dtype=np.int64,
    )


def _vec_mix64(iters: np.ndarray, occ: np.ndarray, c: int) -> np.ndarray:
    """splitmix64 finalizer over (iters[i], occ[i], c), wrapping at 64 bits."""
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
        self._graph(blocks)
        self._patterns = list(region.patterns.values())
        self._pattern_ids = {name: q for q, name in enumerate(region.patterns)}
        self.paths: Dict[int, PathData] = {}
        # iteration -> FastTrace, (iteration, branch) -> burst, per seed
        self.traces: Dict[int, Dict[int, FastTrace]] = {}
        self.wp_addrs: Dict[int, Dict[Tuple[int, int], Sequence[int]]] = {}
        # I-fetch geometry (shared 64-byte block size with the L1I).
        self.ifetch_base_block = code_base_for(region.name) >> L1_BLOCK_BITS
        self.ifetch_footprint = max(1, region.code_footprint // 64)
        self._prefix = "it:" if self.is_parallel else "sq:"

    def _graph(self, blocks: List[_CompiledBlock]) -> None:
        """The bulk walker's form of the CFG.

        Node ``j`` is the ``j``-th branch block and the last node ends
        the walk.  Each edge skips the unconditional blocks after it and
        counts every block it enters, so a walk takes one step per
        branch decision.  An unconditional cycle counts past
        :data:`MAX_BLOCKS_PER_WALK`.
        """
        branch_blocks = [i for i, blk in enumerate(blocks) if blk.p_eff is not None]
        node = {i: j for j, i in enumerate(branch_blocks)}
        end = self._end = len(branch_blocks)

        def settle(i: int) -> Tuple[int, int]:
            entered = 0
            while i >= 0 and blocks[i].p_eff is None:
                entered += 1
                if entered > MAX_BLOCKS_PER_WALK:
                    return end, entered
                i = blocks[i].next_idx
            return (end, entered) if i < 0 else (node[i], entered + 1)

        self._entry = settle(self.entry_idx)
        edges = [[settle(blocks[i].fall_idx) for i in branch_blocks] + [(end, 0)],
                 [settle(blocks[i].taken_idx) for i in branch_blocks] + [(end, 0)]]
        # Rows: fallthrough, taken.  The end node never takes its edge.
        self._next = np.array([[n for n, _ in row] for row in edges], dtype=np.intp)
        self._entered = np.array([[c for _, c in row] for row in edges],
                                 dtype=np.int64)
        self._p = np.array([blocks[i].p_eff for i in branch_blocks] + [0.0])

    # -- walking -------------------------------------------------------

    def _walk_key(self, gen) -> int:
        """Replay branch decisions only, buffering the double stream.

        Overdraws from the stream in chunks; the values consumed for
        decision *k* are identical to the oracle's scalar draws.  The
        key packs the decisions into the bits of an int, the first one
        lowest, under a leading 1.
        """
        blocks = self.blocks
        cur = self.entry_idx
        bits = 0
        n_dec = 0
        buf = gen.random(16)
        nbuf = 16
        bi = 0
        steps = 0
        while cur >= 0:
            steps += 1
            if steps > MAX_BLOCKS_PER_WALK:
                raise _runaway_walk()
            blk = blocks[cur]
            p = blk.p_eff
            if p is None:
                cur = blk.next_idx
            else:
                if bi == nbuf:
                    buf = gen.random(64)
                    nbuf = 64
                    bi = 0
                if buf[bi] < p:
                    bits |= 1 << n_dec
                    cur = blk.taken_idx
                else:
                    cur = blk.fall_idx
                bi += 1
                n_dec += 1
        return bits | (1 << n_dec)

    def _walk_bulk(self, doubles: np.ndarray) -> Tuple[List[int], List[bool]]:
        """The keys of walks stepped together, one draw a step.

        Row ``k`` of ``doubles`` holds stream ``k``'s first doubles.
        Returns each walk's key and whether it ended within them; the
        key of a walk that did not is meaningless.
        """
        n, width = doubles.shape
        node, entered = self._entry
        cur = np.full(n, node, dtype=np.intp)
        blocks = np.full(n, entered, dtype=np.int64)
        bits = np.zeros(n, dtype=np.int64)
        n_dec = np.zeros(n, dtype=np.int64)
        end = self._end
        for step in range(width):
            live = cur != end
            if not live.any():
                break
            taken = (doubles[:, step] < self._p[cur]).astype(np.intp)
            n_dec += live
            bits |= taken << step
            blocks += self._entered[taken, cur]
            cur = self._next[taken, cur]
        if blocks.max() > MAX_BLOCKS_PER_WALK:
            raise _runaway_walk()
        return (bits | (1 << n_dec)).tolist(), (cur == end).tolist()

    def _paths(self, streams: FastStreamFactory,
               names: List[str]) -> List[PathData]:
        """The path each named stream walks, compiling the new ones."""
        paths = self.paths
        out: List[PathData] = []
        raw = streams.raw_batch(names, _WALK_DRAWS)
        if raw is None:
            for name, gen in zip(names, streams.fresh_batch(names)):
                key = self._walk_key(gen)
                path = paths.get(key)
                out.append(path if path is not None
                           else self._new_path(key, streams.fresh(name)))
            return out
        doubles = raw_doubles(raw)
        keys, ended = self._walk_bulk(doubles)
        for k, (key, done) in enumerate(zip(keys, ended)):
            if not done:
                key = self._walk_key(streams.fresh(names[k]))
            path = paths.get(key)
            if path is None:
                path = self._new_path(
                    key, _Replay(doubles[k]) if done else streams.fresh(names[k]))
            out.append(path)
        return out

    def _new_path(self, key: int, rng) -> PathData:
        """Compile the path of a walk the memo has not seen.

        Reruns the oracle's own walker on the same stream, so path
        structure is exact by construction rather than by
        transliteration.
        """
        path = PathData(key, self.region.cfg.walk(rng), self._pattern_ids)
        if len(self.paths) < _MAX_PATHS:
            self.paths[key] = path
        return path

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

        :data:`_BIND_ROWS` indices a pass, the walks are drawn and
        stepped together (:meth:`_paths`) and their traces bound
        together (:meth:`_bind_paths`).
        """
        prefix = f"{self._prefix}{self.region.name}:"
        out: List[FastTrace] = []
        for lo in range(0, len(indices), _BIND_ROWS):
            chunk = indices[lo:lo + _BIND_ROWS]
            out += self._bind_paths(
                chunk, self._paths(streams, [f"{prefix}{i}" for i in chunk]))
        for index, trace in zip(indices, out):
            if len(per_seed) >= _MAX_TRACES:
                break
            per_seed[index] = trace
        return out

    def _bind_paths(self, indices: List[int],
                    paths: List[PathData]) -> List[FastTrace]:
        """The traces of ``indices``, walking ``paths``.

        Every memory slot of every trace goes into one flat list of
        (iteration, occurrence, slot) entries, and each pattern binds
        its entries with one ``_vec_addrs`` call.
        """
        pattern = np.concatenate([path.slot_pattern for path in paths])
        occ = np.concatenate([path.slot_occ for path in paths])
        iters = np.repeat(np.asarray(indices, dtype=np.int64),
                          [path.slot_occ.size for path in paths])
        addrs = np.empty(occ.size, dtype=np.int64)
        for q, pat in enumerate(self._patterns):
            sel = np.flatnonzero(pattern == q)
            if sel.size:
                addrs[sel] = _vec_addrs(pat, iters[sel], occ[sel])
        flat = addrs.tobytes()
        targets = addrs[np.concatenate([path.slot_target for path in paths])]
        targets = targets.tolist()
        out: List[FastTrace] = []
        end = t_end = 0
        for path in paths:
            start = end
            mid = start + 8 * path.n_loads
            end = mid + 8 * path.n_stores
            t_start = t_end
            t_end += path.n_targets
            out.append(FastTrace(
                path, array("q", flat[start:mid]), array("q", flat[mid:end]),
                tuple(targets[t_start:t_end]) if t_end > t_start else (),
            ))
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
            addrs = self._burst(trace, branch_idx, index, future_loads,
                                *self._draws(rng))
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
        arguments :meth:`wrong_path_addrs` would get.  The bursts the
        memo lacks, up to its room, are drawn together: each from its
        stream's first three raw outputs, where numpy draws the length
        by search, or else from its own generator.  The rest are left
        to :meth:`wrong_path_addrs`.
        """
        prof = self.region.wrong_exec
        if prof.wp_max_loads == 0 or prof.wp_mean_loads <= 0:
            return
        per_seed = self.wp_addrs.setdefault(seed, {})
        todo = [site for site in sites if (site[2], site[1]) not in per_seed]
        del todo[max(0, _MAX_TRACES - len(per_seed)):]
        region = self.region.name
        names = [f"wp:{region}:{index}:{branch_idx}"
                 for _, branch_idx, index, _ in todo]
        p = min(1.0, 1.0 / prof.wp_mean_loads)
        n_skip = max(1, prof.wp_lookahead // 4)
        raw = (streams.raw_batch(names, 3)
               if p >= GEOMETRIC_SEARCH_MIN and n_skip < 1 << 32 else None)
        if raw is None:
            for site, rng in zip(todo, streams.fresh_batch(names)):
                per_seed[(site[2], site[1])] = self._burst(*site, *self._draws(rng))
            return
        lengths = np.minimum(geometric_search(raw_doubles(raw[:, 0]), p),
                             prof.wp_max_loads)
        skips, exact = lemire_bounded(raw[:, 2], n_skip)
        exact &= lengths > 0
        for site, name, k, u, skip, ok in zip(
                todo, names, lengths.tolist(), raw_doubles(raw[:, 1]).tolist(),
                skips.tolist(), exact.tolist()):
            draws = (k, u, skip) if ok else self._draws(streams.fresh(name))
            per_seed[(site[2], site[1])] = self._burst(*site, *draws)

    def _draws(self, rng) -> Tuple[int, float, int]:
        """A burst's draws from its own fresh stream ``rng``, in the
        oracle's order: its length (capped), the convergence double and,
        when that double can make the burst convergent, the skip."""
        prof = self.region.wrong_exec
        k = min(int(rng.geometric(min(1.0, 1.0 / prof.wp_mean_loads))),
                prof.wp_max_loads)
        u = rng.random()
        skip = 0
        if u < prof.p_convergent:
            skip = int(rng.integers(0, max(1, prof.wp_lookahead // 4)))
        return k, u, skip

    def _burst(self, trace: FastTrace, branch_idx: int, index: int,
               future_loads: Optional[Sequence[int]], k: int, u: float,
               skip: int) -> Sequence[int]:
        """One wrong-path burst of ``k`` loads, given its draws."""
        region = self.region
        prof = region.wrong_exec
        path = trace.path
        next_load = path.branch_next_load[branch_idx]
        own_loads = trace.load_addrs
        n_own = path.n_loads
        n_ext = n_own + (len(future_loads) if future_loads is not None else 0)
        if u < prof.p_convergent and next_load < n_ext:
            start = next_load + skip
            stop = min(start + k, n_ext)
            burst = own_loads[start:stop]
            if stop > n_own:
                burst.extend(future_loads[max(start, n_own) - n_own:stop - n_own])
        elif region.pollution_pattern is not None:
            addr = region.patterns[region.pollution_pattern].addr
            occ = (1 << 20) + branch_idx * 64
            burst = array("q", [addr(index, occ + j) for j in range(k)])
        elif n_own:
            start = min(next_load + prof.wp_lookahead, n_own - 1)
            burst = own_loads[start:start + k]
        else:
            return ()
        return burst if burst else ()

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


def _runaway_walk() -> WorkloadError:
    return WorkloadError(
        f"CFG walk exceeded {MAX_BLOCKS_PER_WALK} blocks; "
        f"check loop back-edge probabilities"
    )


class ProgramMemo:
    """Everything the fast engine memoizes for one program.

    ``regions`` maps ``id(region)`` to the region's compiled form; the
    compiled form holds its region, so no other object can take that id
    while the entry lives.  ``branch_streams`` holds the branch-outcome
    streams :func:`repro.sim.fast.engine.run_program_fast` records,
    keyed by seed, TU count and branch geometry; ``wp_seeded`` the keys
    of the streams whose wrong-path bursts a completed run has seeded
    into the regions' ``wp_addrs``.
    """

    __slots__ = ("regions", "branch_streams", "wp_seeded", "__weakref__")

    def __init__(self) -> None:
        self.regions: Dict[int, CompiledRegion] = {}
        self.branch_streams: Dict[tuple, List[list]] = {}
        self.wp_seeded: Set[tuple] = set()

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
