"""Compact numpy encoding of dynamic iteration traces.

The hot replay loop in :mod:`repro.core` consumes pre-decoded integer
arrays rather than per-instruction objects (see the hpc-parallel
guidance: no per-event allocation in the hot path).  One
:class:`IterationTrace` captures everything the timing model and the
memory hierarchy need for a single loop iteration (or a sequential
chunk): bound load/store addresses with stream positions, the branch
outcome stream, and the thread-pipelining stage split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..common.errors import WorkloadError
from .instructions import InstructionMix

__all__ = ["StageSplit", "IterationTrace", "EV_LOAD", "EV_STORE", "EV_TSTORE", "EV_BRANCH"]

EV_LOAD = 0
EV_STORE = 1
EV_TSTORE = 2
EV_BRANCH = 3


@dataclass(frozen=True)
class StageSplit:
    """Fraction of an iteration's instructions in each pipelining stage.

    §2.2: continuation (recurrence variables, ends in fork), TSAG
    (target-store address generation), computation (bulk of the body),
    write-back (commit of the memory buffer, performed in order).
    """

    continuation: float = 0.05
    tsag: float = 0.05
    computation: float = 0.85
    writeback: float = 0.05

    def __post_init__(self) -> None:
        total = self.continuation + self.tsag + self.computation + self.writeback
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"stage split must sum to 1.0, got {total}")
        for name in ("continuation", "tsag", "computation", "writeback"):
            if getattr(self, name) < 0:
                raise WorkloadError(f"negative stage fraction {name}")

    def cycles(self, total_cycles: float) -> Tuple[float, float, float, float]:
        """Split ``total_cycles`` across the four stages."""
        return (
            total_cycles * self.continuation,
            total_cycles * self.tsag,
            total_cycles * self.computation,
            total_cycles * self.writeback,
        )


@dataclass
class IterationTrace:
    """The fully bound dynamic trace of one iteration.

    All arrays are parallel within their kind and sorted by stream
    position.  ``branch_next_load[i]`` is the index into ``load_addrs``
    of the first load *after* branch ``i`` — the reconvergence anchor the
    wrong-path injector uses to synthesize convergent wrong-path loads.
    """

    n_instr: int
    mix: InstructionMix
    load_addrs: np.ndarray    # int64 byte addresses
    load_pos: np.ndarray      # int64 stream positions
    store_addrs: np.ndarray   # int64
    store_pos: np.ndarray     # int64
    tstore_mask: np.ndarray   # bool, parallel to store_addrs
    branch_pcs: np.ndarray    # int64
    branch_pos: np.ndarray    # int64
    branch_taken: np.ndarray  # bool
    stage_split: StageSplit = field(default_factory=StageSplit)
    #: Values forwarded to the next thread at fork (continuation vars +
    #: target-store addresses); drives the per-fork communication cost.
    n_forward_values: int = 2
    branch_next_load: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if len(self.load_addrs) != len(self.load_pos):
            raise WorkloadError("load address/position arrays disagree")
        if not (len(self.store_addrs) == len(self.store_pos) == len(self.tstore_mask)):
            raise WorkloadError("store arrays disagree")
        if not (len(self.branch_pcs) == len(self.branch_pos) == len(self.branch_taken)):
            raise WorkloadError("branch arrays disagree")
        if self.branch_next_load is None:
            self.branch_next_load = np.searchsorted(
                self.load_pos, self.branch_pos, side="left"
            ).astype(np.int64)

    @property
    def n_loads(self) -> int:
        return len(self.load_addrs)

    @property
    def n_stores(self) -> int:
        return len(self.store_addrs)

    @property
    def n_branches(self) -> int:
        return len(self.branch_pcs)

    def merged_events(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merge loads, stores and branches into one position-ordered stream.

        Returns ``(kinds, values, indices)`` where ``kinds`` holds
        ``EV_LOAD``/``EV_STORE``/``EV_TSTORE``/``EV_BRANCH``, ``values``
        holds the address (memory ops) or PC (branches), and ``indices``
        is the op's index within its own kind-specific array.
        """
        n = self.n_loads + self.n_stores + self.n_branches
        pos = np.empty(n, dtype=np.int64)
        kinds = np.empty(n, dtype=np.int8)
        values = np.empty(n, dtype=np.int64)
        indices = np.empty(n, dtype=np.int64)
        a = 0
        b = a + self.n_loads
        pos[a:b] = self.load_pos
        kinds[a:b] = EV_LOAD
        values[a:b] = self.load_addrs
        indices[a:b] = np.arange(self.n_loads)
        a, b = b, b + self.n_stores
        pos[a:b] = self.store_pos
        kinds[a:b] = np.where(self.tstore_mask, EV_TSTORE, EV_STORE)
        values[a:b] = self.store_addrs
        indices[a:b] = np.arange(self.n_stores)
        a, b = b, b + self.n_branches
        pos[a:b] = self.branch_pos
        kinds[a:b] = EV_BRANCH
        values[a:b] = self.branch_pcs
        indices[a:b] = np.arange(self.n_branches)
        order = np.argsort(pos, kind="stable")
        return kinds[order], values[order], indices[order]

    @staticmethod
    def empty(n_instr: int = 0) -> "IterationTrace":
        """An all-empty trace (useful for padding and tests)."""
        z64 = np.empty(0, dtype=np.int64)
        zb = np.empty(0, dtype=bool)
        return IterationTrace(
            n_instr=n_instr,
            mix=InstructionMix(),
            load_addrs=z64,
            load_pos=z64.copy(),
            store_addrs=z64.copy(),
            store_pos=z64.copy(),
            tstore_mask=zb,
            branch_pcs=z64.copy(),
            branch_pos=z64.copy(),
            branch_taken=zb.copy(),
        )
