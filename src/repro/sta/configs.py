"""The paper's named machine configurations (§4.3) and Table 3 scaling.

Configuration families evaluated in §5:

=============  ==============================================================
``orig``       baseline STA; speculative loads before resolution only.
``vc``         + small fully-associative victim cache beside each L1D.
``wp``         + wrong-path execution (loads continue after branch resolve).
``wth``        + wrong-thread execution (aborted threads run on).
``wth-wp``     both forms of wrong execution, no sidecar.
``wth-wp-vc``  both forms + victim cache (pollution still reaches the L1).
``wth-wp-wec`` both forms + the Wrong Execution Cache (the contribution).
``nlp``        tagged next-line prefetching with a prefetch buffer,
               no wrong execution (the classic-prefetching comparator).
=============  ==============================================================

:func:`table3_config` reproduces Table 3's constant-total-parallelism
design points (issue × TUs = 16) used for the Figure 8 baseline study.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..common.config import (
    CacheConfig,
    FuncUnitMix,
    MachineConfig,
    MemorySystemConfig,
    SidecarConfig,
    SidecarKind,
    ThreadUnitConfig,
    WrongExecutionConfig,
)
from ..common.errors import ConfigError

__all__ = [
    "CONFIG_NAMES",
    "named_config",
    "table3_config",
    "TABLE3_ROWS",
]

CONFIG_NAMES: Tuple[str, ...] = (
    "orig",
    "vc",
    "wp",
    "wth",
    "wth-wp",
    "wth-wp-vc",
    "wth-wp-wec",
    "nlp",
)

_SIDECARS: Dict[str, SidecarKind] = {
    "orig": SidecarKind.NONE,
    "vc": SidecarKind.VICTIM,
    "wp": SidecarKind.NONE,
    "wth": SidecarKind.NONE,
    "wth-wp": SidecarKind.NONE,
    "wth-wp-vc": SidecarKind.VICTIM,
    "wth-wp-wec": SidecarKind.WEC,
    "nlp": SidecarKind.PREFETCH,
}

_WRONG_EXEC: Dict[str, WrongExecutionConfig] = {
    "orig": WrongExecutionConfig(False, False),
    "vc": WrongExecutionConfig(False, False),
    "wp": WrongExecutionConfig(wrong_path=True, wrong_thread=False),
    "wth": WrongExecutionConfig(wrong_path=False, wrong_thread=True),
    "wth-wp": WrongExecutionConfig(True, True),
    "wth-wp-vc": WrongExecutionConfig(True, True),
    "wth-wp-wec": WrongExecutionConfig(True, True),
    "nlp": WrongExecutionConfig(False, False),
}


def named_config(
    name: str,
    n_tus: int = 8,
    sidecar_entries: int = 8,
    l1d: Optional[CacheConfig] = None,
    l2: Optional[CacheConfig] = None,
) -> MachineConfig:
    """Build one of the eight §4.3 configurations.

    Defaults follow §5.2: eight 8-issue TUs, 64-entry ROB/LSQ,
    8 INT ALU / 4 INT MULT / 8 FP ALU / 4 FP MULT, 8KB direct-mapped L1D
    with 64-byte blocks, 8-entry sidecar, 512KB 4-way shared L2.
    """
    if name not in CONFIG_NAMES:
        raise ConfigError(
            f"unknown configuration {name!r}; choose from {CONFIG_NAMES}"
        )
    l1d = l1d or CacheConfig(size=8 * 1024, assoc=1, block_size=64, name="l1d")
    tu = ThreadUnitConfig(
        issue_width=8,
        rob_size=64,
        lsq_size=64,
        func_units=FuncUnitMix(int_alu=8, int_mult=4, fp_alu=8, fp_mult=4),
        l1d=l1d,
        sidecar=SidecarConfig(kind=_SIDECARS[name], entries=sidecar_entries),
    )
    mem = MemorySystemConfig() if l2 is None else MemorySystemConfig(l2=l2)
    return MachineConfig(
        name=name,
        n_thread_units=n_tus,
        tu=tu,
        mem=mem,
        wrong_exec=_WRONG_EXEC[name],
    )


#: Table 3: (#TUs, issue, ROB, INT ALU, INT MULT, FP ALU, FP MULT, L1D KB).
#: The first row is the single-thread single-issue baseline of Figure 8.
TABLE3_ROWS: Tuple[Tuple[int, int, int, int, int, int, int, int], ...] = (
    (1, 1, 8, 1, 1, 1, 1, 2),
    (1, 16, 128, 16, 8, 16, 8, 32),
    (2, 8, 64, 8, 4, 8, 4, 16),
    (4, 4, 32, 4, 2, 4, 2, 8),
    (8, 2, 16, 2, 1, 2, 1, 4),
    (16, 1, 8, 1, 1, 1, 1, 2),
)


def table3_config(n_tus: int, single_issue_baseline: bool = False) -> MachineConfig:
    """One of Table 3's constant-parallelism design points.

    ``single_issue_baseline=True`` returns the 1-TU single-issue
    processor Figure 8 normalizes against; otherwise ``n_tus`` selects
    the row with ``issue = 16 / n_tus`` and the per-TU L1D scaled so the
    total L1 capacity stays at 32KB.
    """
    for row in TABLE3_ROWS:
        tus, issue, rob, ialu, imult, fpalu, fpmult, l1kb = row
        if single_issue_baseline:
            if tus == 1 and issue == 1:
                break
        elif tus == n_tus and issue == 16 // n_tus:
            break
    else:
        raise ConfigError(f"no Table 3 row for {n_tus} thread units")
    l1d = CacheConfig(size=l1kb * 1024, assoc=4, block_size=64, name="l1d")
    tu = ThreadUnitConfig(
        issue_width=issue,
        rob_size=rob,
        lsq_size=max(8, rob),
        func_units=FuncUnitMix(
            int_alu=ialu, int_mult=imult, fp_alu=fpalu, fp_mult=fpmult
        ),
        l1d=l1d,
        sidecar=SidecarConfig(kind=SidecarKind.NONE),
    )
    label = "base-1x1" if single_issue_baseline else f"table3-{tus}tu-{issue}w"
    return MachineConfig(
        name=label,
        n_thread_units=tus,
        tu=tu,
        wrong_exec=WrongExecutionConfig(False, False),
    )
