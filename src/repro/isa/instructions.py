"""Instruction classes and mixes for the superthreaded ISA model.

The simulator is trace-driven: it does not interpret register semantics,
but it does track dynamic instruction *classes* because the thread-unit
timing model charges different functional units (Table 3) and the
thread-pipelining stages are built from specific instruction kinds
(``FORK``, ``ABORT``, ``BEGIN``, target stores).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping

from ..common.errors import ConfigError

__all__ = ["InstrClass", "InstructionMix", "FU_CLASS_MAP"]


class InstrClass(enum.IntEnum):
    """Dynamic instruction classes recognised by the timing model."""

    IALU = 0
    IMULT = 1
    FPALU = 2
    FPMULT = 3
    LOAD = 4
    STORE = 5
    BRANCH = 6
    #: Target store: a store whose address is computed in the TSAG stage
    #: and forwarded to downstream memory buffers (§2.2).
    TSTORE = 7
    #: Thread-management instructions of the superthreaded ISA (§2.2).
    FORK = 8
    ABORT = 9
    BEGIN = 10
    OTHER = 11


#: Which functional-unit pool each class occupies (None = none/pipeline).
FU_CLASS_MAP: Dict[InstrClass, str] = {
    InstrClass.IALU: "int_alu",
    InstrClass.IMULT: "int_mult",
    InstrClass.FPALU: "fp_alu",
    InstrClass.FPMULT: "fp_mult",
    InstrClass.LOAD: "int_alu",   # address generation
    InstrClass.STORE: "int_alu",  # address generation
    InstrClass.TSTORE: "int_alu",
    InstrClass.BRANCH: "int_alu",
}

@dataclass
class InstructionMix:
    """Counts of dynamic instructions by class.

    Used both as a *specification* (relative weights inside a basic
    block) and as an *accumulator* (dynamic counts over a trace).
    """

    counts: Dict[InstrClass, int] = field(default_factory=dict)

    @classmethod
    def from_weights(cls, total: int, weights: Mapping[InstrClass, float]) -> "InstructionMix":
        """Apportion ``total`` instructions according to ``weights``.

        Rounds down per class and assigns the remainder to ``IALU`` so the
        total is exact.

        >>> mix = InstructionMix.from_weights(10, {InstrClass.LOAD: 0.3, InstrClass.IALU: 0.7})
        >>> mix.total
        10
        >>> mix.counts[InstrClass.LOAD]
        3
        """
        if total < 0:
            raise ConfigError("instruction total must be non-negative")
        wsum = sum(weights.values())
        if wsum <= 0:
            raise ConfigError("instruction mix weights must sum to a positive value")
        counts: Dict[InstrClass, int] = {}
        assigned = 0
        for klass, w in weights.items():
            n = int(total * (w / wsum))
            if n:
                counts[klass] = n
                assigned += n
        remainder = total - assigned
        if remainder:
            counts[InstrClass.IALU] = counts.get(InstrClass.IALU, 0) + remainder
        return cls(counts)

    @property
    def total(self) -> int:
        """Total dynamic instruction count."""
        return sum(self.counts.values())

    def count(self, klass: InstrClass) -> int:
        """Dynamic count for one class (0 when absent)."""
        return self.counts.get(klass, 0)

    def add(self, klass: InstrClass, n: int = 1) -> None:
        """Accumulate ``n`` instructions of ``klass``."""
        if n:
            self.counts[klass] = self.counts.get(klass, 0) + n

    def merge_from(self, other: "InstructionMix") -> None:
        """Accumulate another mix into this one."""
        for klass, n in other.counts.items():
            self.add(klass, n)

    def scaled(self, factor: float) -> "InstructionMix":
        """A copy with every count scaled by ``factor`` (rounded, >=0)."""
        return InstructionMix(
            {k: max(0, int(round(n * factor))) for k, n in self.counts.items() if n}
        )

    @property
    def mem_ops(self) -> int:
        """Loads plus all stores (including target stores)."""
        return (
            self.count(InstrClass.LOAD)
            + self.count(InstrClass.STORE)
            + self.count(InstrClass.TSTORE)
        )

    def fu_demand(self) -> Dict[str, int]:
        """Dynamic demand per functional-unit pool."""
        demand: Dict[str, int] = {}
        for klass, n in self.counts.items():
            pool = FU_CLASS_MAP.get(klass)
            if pool is not None:
                demand[pool] = demand.get(pool, 0) + n
        return demand

    def __repr__(self) -> str:
        inner = ", ".join(f"{k.name}={n}" for k, n in sorted(self.counts.items()))
        return f"InstructionMix({inner})"
