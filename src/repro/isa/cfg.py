"""Control-flow-graph model of one loop iteration's body.

Benchmark models (:mod:`repro.workloads.benchmarks`) describe each
parallelized loop's body as a small CFG of :class:`BlockSpec` basic
blocks.  The trace generator *walks* this CFG once per dynamic iteration:
every block contributes its instruction mix, its memory slots emit
addresses drawn from named access patterns, and every conditional branch
emits a (PC, outcome) pair that the simulated branch predictor must
predict.  This gives the predictor a realistic per-PC workload (biased
branches, data-dependent branches, loop back-edges) instead of a flat
misprediction-rate parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import WorkloadError
from .instructions import InstrClass, InstructionMix

__all__ = ["MemSlot", "BranchSpec", "BlockSpec", "IterationCFG", "WalkResult"]

#: Hard cap on blocks executed in one CFG walk (guards against
#: mis-specified graphs that would otherwise loop forever).
MAX_BLOCKS_PER_WALK = 10_000


@dataclass(frozen=True)
class MemSlot:
    """One static memory instruction inside a basic block.

    ``pattern`` names an address pattern registered with the walker;
    ``is_store`` distinguishes stores, and ``is_target_store`` marks the
    superthreaded *target stores* whose addresses are computed in the
    TSAG stage and forwarded downstream (§2.2).
    """

    pattern: str
    is_store: bool = False
    is_target_store: bool = False

    def __post_init__(self) -> None:
        if self.is_target_store and not self.is_store:
            raise WorkloadError("a target store must be a store")


@dataclass(frozen=True)
class BranchSpec:
    """The conditional branch terminating a basic block.

    ``taken_prob`` is the probability the branch is taken on a given
    execution; ``taken_target`` / ``fallthrough`` name successor blocks
    (``None`` ends the iteration).  ``noise`` in [0, 1] mixes in
    per-execution randomness that even a perfect predictor cannot learn
    (data-dependent branches); 0 means the outcome stream is exactly
    Bernoulli(taken_prob) which a counter predictor learns to the bias.
    """

    taken_prob: float
    taken_target: Optional[str]
    fallthrough: Optional[str]
    noise: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.taken_prob <= 1.0:
            raise WorkloadError(f"taken_prob {self.taken_prob} outside [0,1]")
        if not 0.0 <= self.noise <= 1.0:
            raise WorkloadError(f"noise {self.noise} outside [0,1]")


@dataclass(frozen=True)
class BlockSpec:
    """A basic block: instruction mix, memory slots, optional branch."""

    name: str
    n_instr: int
    mix_weights: Dict[InstrClass, float] = field(
        default_factory=lambda: {InstrClass.IALU: 1.0}
    )
    mem_slots: Tuple[MemSlot, ...] = ()
    branch: Optional[BranchSpec] = None
    #: Unconditional successor when there is no branch (None ends walk).
    next_block: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_instr < 0:
            raise WorkloadError(f"block {self.name}: negative instruction count")
        if self.branch is not None and self.next_block is not None:
            raise WorkloadError(
                f"block {self.name}: cannot have both a branch and a fallthrough successor"
            )


@dataclass
class WalkResult:
    """The dynamic record of one CFG walk (one loop iteration).

    Memory operations and branches carry a *position* — their index in
    the dynamic instruction stream — so the replay engine can interleave
    them and relate wrong-path injection points to upcoming loads.
    """

    n_instr: int
    mix: InstructionMix
    #: (position, pattern, is_store, is_target_store) per memory op,
    #: in dynamic order; addresses are bound later by the trace generator.
    mem_ops: List[Tuple[int, str, bool, bool]]
    #: (position, pc, taken) per conditional branch, in dynamic order.
    branches: List[Tuple[int, int, bool]]
    blocks_executed: int


class IterationCFG:
    """A validated CFG plus the walker that produces dynamic traces."""

    def __init__(self, entry: str, blocks: Sequence[BlockSpec], pc_base: int = 0x400000) -> None:
        self.entry = entry
        self.blocks: Dict[str, BlockSpec] = {}
        for b in blocks:
            if b.name in self.blocks:
                raise WorkloadError(f"duplicate block name {b.name!r}")
            self.blocks[b.name] = b
        self._validate()
        # Stable per-block branch PCs so predictors see consistent indices.
        self._branch_pc: Dict[str, int] = {}
        for i, name in enumerate(sorted(self.blocks)):
            self._branch_pc[name] = pc_base + 16 * i
        # Each block's instruction mix depends only on the block, so a
        # walk builds it on its first visit and merges it thereafter.
        self._block_mix: Dict[str, InstructionMix] = {}

    def _validate(self) -> None:
        if self.entry not in self.blocks:
            raise WorkloadError(f"entry block {self.entry!r} not defined")
        for b in self.blocks.values():
            targets = []
            if b.branch is not None:
                targets.extend([b.branch.taken_target, b.branch.fallthrough])
            elif b.next_block is not None:
                targets.append(b.next_block)
            for t in targets:
                if t is not None and t not in self.blocks:
                    raise WorkloadError(f"block {b.name!r} targets unknown block {t!r}")

    def walk(self, rng: np.random.Generator) -> WalkResult:
        """Execute the CFG once, producing a dynamic iteration record."""
        pos = 0
        mix = InstructionMix()
        mem_ops: List[Tuple[int, str, bool, bool]] = []
        branches: List[Tuple[int, int, bool]] = []
        blocks_executed = 0
        current: Optional[str] = self.entry
        while current is not None:
            blocks_executed += 1
            if blocks_executed > MAX_BLOCKS_PER_WALK:
                raise WorkloadError(
                    f"CFG walk exceeded {MAX_BLOCKS_PER_WALK} blocks; "
                    f"check loop back-edge probabilities"
                )
            block = self.blocks[current]
            body_instr = block.n_instr
            block_mix = self._block_mix.get(current)
            if block_mix is None:
                block_mix = InstructionMix.from_weights(body_instr, block.mix_weights)
                self._block_mix[current] = block_mix
            mix.merge_from(block_mix)
            # Spread memory slots evenly across the block's instructions.
            n_slots = len(block.mem_slots)
            for i, slot in enumerate(block.mem_slots):
                slot_pos = pos + (body_instr * (i + 1)) // (n_slots + 1)
                mem_ops.append((slot_pos, slot.pattern, slot.is_store, slot.is_target_store))
            pos += body_instr
            if block.branch is not None:
                br = block.branch
                p = br.taken_prob
                if br.noise > 0.0:
                    # Mix the bias with an unlearnable coin flip.
                    p = p * (1.0 - br.noise) + 0.5 * br.noise
                taken = bool(rng.random() < p)
                branches.append((pos, self._branch_pc[current], taken))
                mix.add(InstrClass.BRANCH, 1)
                pos += 1
                current = br.taken_target if taken else br.fallthrough
            else:
                current = block.next_block
        return WalkResult(
            n_instr=pos,
            mix=mix,
            mem_ops=mem_ops,
            branches=branches,
            blocks_executed=blocks_executed,
        )
