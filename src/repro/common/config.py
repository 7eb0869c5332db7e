"""Configuration dataclasses for every simulated component.

The defaults reproduce the paper's §4.1/§5.2 setup:

* per-TU 4-way 1024-entry BTB, bimodal predictor (see
  :class:`BranchPredictorConfig` for why not global history);
* 128-entry fully-associative speculative memory buffer;
* 32KB 2-way L1 I-cache per TU;
* default L1 D-cache: 8KB direct-mapped, 64-byte blocks;
* default WEC: 8 entries, fully associative, L1 block size;
* shared unified L2: 512KB 4-way, 128-byte blocks;
* 200-cycle round-trip memory latency;
* fork delay 4 cycles + 2 cycles per forwarded value;
* default machine for the WEC experiments: 8 TUs, each 8-issue
  out-of-order with 64-entry ROB and LSQ, 8 INT ALUs, 4 INT mult,
  8 FP adders, 4 FP mult.

All dataclasses are frozen; use :func:`dataclasses.replace` to derive
variants (the fidelity campaign in :mod:`repro.obs.fidelity` does exactly
that).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .units import is_pow2, parse_size

__all__ = [
    "SidecarKind",
    "CacheConfig",
    "SidecarConfig",
    "BranchPredictorConfig",
    "FuncUnitMix",
    "ThreadUnitConfig",
    "MemorySystemConfig",
    "WrongExecutionConfig",
    "MachineConfig",
    "SimParams",
]


class SidecarKind(enum.Enum):
    """What (if anything) sits beside each TU's L1 data cache."""

    NONE = "none"
    #: Jouppi-style victim cache (configurations ``vc`` and ``wth-wp-vc``).
    VICTIM = "vc"
    #: The paper's Wrong Execution Cache (configuration ``wth-wp-wec``).
    WEC = "wec"
    #: Tagged next-line prefetch buffer (configuration ``nlp``).
    PREFETCH = "nlp"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one set-associative cache.

    Parameters
    ----------
    size:
        Total capacity in bytes (accepts ``"8K"`` style strings).
    assoc:
        Set associativity (1 = direct mapped).
    block_size:
        Line size in bytes; must be a power of two.
    hit_latency:
        Cycles for a hit (load-to-use).
    name:
        Label used in statistics output.
    """

    size: int = 8 * 1024
    assoc: int = 1
    block_size: int = 64
    hit_latency: int = 1
    name: str = "cache"

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", parse_size(self.size))
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent geometry."""
        if self.assoc < 1:
            raise ConfigError(f"{self.name}: associativity must be >= 1")
        if not is_pow2(self.block_size):
            raise ConfigError(f"{self.name}: block size {self.block_size} not a power of two")
        if self.size <= 0:
            raise ConfigError(f"{self.name}: size must be positive")
        if self.size % (self.block_size * self.assoc) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size} is not a multiple of "
                f"block_size*assoc = {self.block_size * self.assoc}"
            )
        if not is_pow2(self.n_sets):
            raise ConfigError(f"{self.name}: set count {self.n_sets} not a power of two")
        if self.hit_latency < 0:
            raise ConfigError(f"{self.name}: negative hit latency")

    @property
    def n_blocks(self) -> int:
        """Total number of block frames."""
        return self.size // self.block_size

    @property
    def n_sets(self) -> int:
        """Number of sets (frames / associativity)."""
        return self.n_blocks // self.assoc

    def scaled(self, factor: float) -> "CacheConfig":
        """Return a copy with capacity scaled by ``factor`` (kept legal)."""
        new_size = int(self.size * factor)
        granule = self.block_size * self.assoc
        new_size = max(granule, (new_size // granule) * granule)
        return replace(self, size=new_size)


@dataclass(frozen=True)
class SidecarConfig:
    """A small fully-associative structure beside the L1D (WEC / VC / PB).

    ``entries`` is the number of blocks; the block size always matches the
    L1 data cache it is attached to (the paper keeps them equal).
    """

    kind: SidecarKind = SidecarKind.NONE
    entries: int = 8

    def __post_init__(self) -> None:
        if self.kind is not SidecarKind.NONE and self.entries < 1:
            raise ConfigError("sidecar must have at least one entry")


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Per-TU branch prediction resources (§4.1).

    The direction predictor is bimodal (per-PC 2-bit counters): with
    per-TU private predictors and short MinneSPEC-scale regions, per-PC
    counters train in a handful of visits, whereas global-history tables
    never warm up.
    """

    #: log2 of the counter table size.
    table_bits: int = 12
    btb_entries: int = 1024
    btb_assoc: int = 4
    #: Pipeline refill penalty charged per mispredicted branch.
    mispredict_penalty: int = 7

    def __post_init__(self) -> None:
        if not 4 <= self.table_bits <= 24:
            raise ConfigError("predictor table_bits out of range [4, 24]")
        if self.btb_entries % self.btb_assoc != 0:
            raise ConfigError("BTB entries must be a multiple of associativity")
        if self.mispredict_penalty < 0:
            raise ConfigError("negative mispredict penalty")


@dataclass(frozen=True)
class FuncUnitMix:
    """Functional-unit counts for one thread unit (Table 3 / §5.2)."""

    int_alu: int = 8
    int_mult: int = 4
    fp_alu: int = 8
    fp_mult: int = 4

    def __post_init__(self) -> None:
        for name in ("int_alu", "int_mult", "fp_alu", "fp_mult"):
            if getattr(self, name) < 1:
                raise ConfigError(f"functional unit count {name} must be >= 1")


@dataclass(frozen=True)
class ThreadUnitConfig:
    """One thread processing unit: an out-of-order superscalar core."""

    issue_width: int = 8
    rob_size: int = 64
    lsq_size: int = 64
    func_units: FuncUnitMix = field(default_factory=FuncUnitMix)
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(size=8 * 1024, assoc=1, block_size=64, name="l1d")
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(size=32 * 1024, assoc=2, block_size=64, name="l1i")
    )
    sidecar: SidecarConfig = field(default_factory=SidecarConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    #: Fully-associative speculative memory buffer entries (§4.1).
    mem_buffer_entries: int = 128

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ConfigError("issue width must be >= 1")
        if self.rob_size < self.issue_width:
            raise ConfigError("ROB must hold at least one issue group")
        if self.lsq_size < 1:
            raise ConfigError("LSQ must have at least one entry")
        if self.mem_buffer_entries < 1:
            raise ConfigError("memory buffer must have at least one entry")


@dataclass(frozen=True)
class MemorySystemConfig:
    """Shared L2 and main memory (§4.1)."""

    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size=512 * 1024, assoc=4, block_size=128, hit_latency=12, name="l2"
        )
    )
    #: Round-trip latency of a main-memory access, in cycles.
    memory_latency: int = 200

    def __post_init__(self) -> None:
        if self.memory_latency <= self.l2.hit_latency:
            raise ConfigError("memory latency must exceed L2 hit latency")


@dataclass(frozen=True)
class WrongExecutionConfig:
    """Which kinds of wrong execution the machine performs (§3.1).

    ``wrong_path``
        Continue issuing ready loads down a mispredicted branch path even
        after the branch resolves (configuration family ``wp``).
    ``wrong_thread``
        Aborted speculative threads keep executing (no fork, no
        write-back) until they kill themselves (family ``wth``).
    """

    wrong_path: bool = False
    wrong_thread: bool = False

    @property
    def any(self) -> bool:
        """True when either form of wrong execution is enabled."""
        return self.wrong_path or self.wrong_thread


@dataclass(frozen=True)
class MachineConfig:
    """A complete superthreaded machine."""

    name: str = "orig"
    n_thread_units: int = 8
    tu: ThreadUnitConfig = field(default_factory=ThreadUnitConfig)
    mem: MemorySystemConfig = field(default_factory=MemorySystemConfig)
    wrong_exec: WrongExecutionConfig = field(default_factory=WrongExecutionConfig)
    #: Cycles to initiate a new thread (register copy + PC forward), §4.1.
    fork_delay: int = 4
    #: Extra cycles per value forwarded to a newly forked thread.
    comm_cycles_per_value: int = 2

    def __post_init__(self) -> None:
        if self.n_thread_units < 1:
            raise ConfigError("need at least one thread unit")
        if self.fork_delay < 0 or self.comm_cycles_per_value < 0:
            raise ConfigError("negative fork/communication delay")
        if self.tu.l1d.block_size > self.mem.l2.block_size:
            raise ConfigError("L1 block size must not exceed L2 block size")

    def describe(self) -> str:
        """One-line human-readable summary."""
        side = self.tu.sidecar
        side_txt = (
            "no sidecar"
            if side.kind is SidecarKind.NONE
            else f"{side.kind.value}({side.entries} entries)"
        )
        we = self.wrong_exec
        we_txt = (
            "+".join(
                t
                for t, on in (("wp", we.wrong_path), ("wth", we.wrong_thread))
                if on
            )
            or "no wrong exec"
        )
        return (
            f"{self.name}: {self.n_thread_units}TU x {self.tu.issue_width}-issue, "
            f"L1D {self.tu.l1d.size // 1024}K/{self.tu.l1d.assoc}-way/"
            f"{self.tu.l1d.block_size}B, L2 {self.mem.l2.size // 1024}K, "
            f"{side_txt}, {we_txt}"
        )


@dataclass(frozen=True)
class SimParams:
    """Global simulation parameters.

    ``scale`` shrinks each benchmark's dynamic instruction count relative
    to Table 2 of the paper (which lists 0.5–1.8 *billion* instructions).
    The default ``scale=2e-4`` (the calibration point of the shipped
    benchmark models) yields runs of roughly 80k–370k instructions —
    large enough for the cache behaviour to emerge, small enough for a
    full figure sweep to complete in seconds in pure Python (the
    MinneSPEC philosophy applied one more time).
    """

    seed: int = 2003
    scale: float = 2e-4
    #: Overlap model: how many outstanding misses a TU can sustain per
    #: 16 ROB entries (memory-level parallelism heuristic).
    mlp_per_16_rob: float = 1.0
    #: Cap on modelled memory-level parallelism.
    mlp_cap: float = 4.0
    #: Record per-region timing detail in results.
    record_regions: bool = False
    #: Leading invocations executed untimed to warm caches, predictors
    #: and the L2 before measurement begins (statistics are reset when
    #: the warm-up completes).  Standard simulator practice; the paper
    #: runs its benchmarks to completion so cold-start effects vanish
    #: into the billion-instruction runs.
    warmup_invocations: int = 1
    #: Cycles charged on the first demand use of a block brought in by a
    #: *next-line prefetch* (nlp buffer or WEC chain): the prefetch
    #: launches only one use-gap before the demand reference, so part of
    #: its fill latency is still outstanding when the consumer arrives.
    #: Wrong-execution fills launch much earlier (at branch resolution /
    #: during the following sequential region) and pay nothing.
    prefetch_late_cycles: float = 6.0
    #: Lateness charge when the next-line prefetch was serviced by main
    #: memory: on a fast-moving stream the ~200-cycle fill is still
    #: mostly outstanding at the demand reference.  Wrong-execution
    #: fills, launched at branch resolution or while the following
    #: sequential code runs, have far more lead time and pay nothing.
    prefetch_late_far_cycles: float = 150.0
    #: Fraction of each wrong-execution fill's latency charged as L1
    #: port/MSHR occupancy when the fill installs into the L1.  A fill
    #: holds an MSHR and the fill port for its whole latency (a memory
    #: fill ~17x longer than an L2 fill), delaying demand misses; the
    #: WEC services wrong loads on its own parallel datapath (Figure 5),
    #: so WEC configurations never pay this charge.
    wrong_fill_mshr_fraction: float = 0.75

    def __post_init__(self) -> None:
        if self.seed < 0:
            # numpy's SeedSequence takes non-negative entropy only; any
            # seed from 0 up (2**32 and beyond too) is valid.
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.scale <= 0 or self.scale > 1:
            raise ConfigError("scale must be in (0, 1]")
        if self.mlp_per_16_rob <= 0 or self.mlp_cap < 1:
            raise ConfigError("invalid MLP model parameters")
        if not 0.0 <= self.wrong_fill_mshr_fraction <= 1.0:
            raise ConfigError("wrong-fill MSHR fraction outside [0, 1]")
        if self.warmup_invocations < 0:
            raise ConfigError("negative warm-up invocation count")
        if self.prefetch_late_cycles < 0 or self.prefetch_late_far_cycles < 0:
            raise ConfigError("negative prefetch lateness charge")

