"""Dynamic branch direction prediction: a bimodal predictor.

Each thread unit predicts with a per-PC table of saturating 2-bit
counters (the reason the reproduction uses bimodal rather than a
global-history design is given on
:class:`~repro.common.config.BranchPredictorConfig`).  The predictor
drives where wrong-path execution is triggered, so its per-PC learning
behaviour matters to the experiments (biased branches mispredict
rarely, noisy data-dependent branches mispredict often — and those are
exactly the wrong paths that prefetch).

Implementation note: the predictor is called once per dynamic branch in
the replay loop, so its state lives in a flat Python list of small ints
(faster than numpy for scalar indexing).
"""

from __future__ import annotations

from typing import List

from ..common.errors import ConfigError

__all__ = ["BimodalPredictor"]

_TAKEN_THRESHOLD = 2  # 2-bit counters: 0,1 -> not taken; 2,3 -> taken
_COUNTER_MAX = 3
_WEAK_TAKEN = 2


class BimodalPredictor:
    """Per-PC table of saturating 2-bit counters."""

    __slots__ = ("_mask", "_table")

    def __init__(self, table_bits: int) -> None:
        if not 1 <= table_bits <= 24:
            raise ConfigError("bimodal table_bits out of range")
        size = 1 << table_bits
        self._mask = size - 1
        self._table: List[int] = [_WEAK_TAKEN] * size

    def predict(self, pc: int) -> bool:
        return self._table[(pc >> 2) & self._mask] >= _TAKEN_THRESHOLD

    def update(self, pc: int, taken: bool) -> None:
        idx = (pc >> 2) & self._mask
        c = self._table[idx]
        if taken:
            if c < _COUNTER_MAX:
                self._table[idx] = c + 1
        elif c > 0:
            self._table[idx] = c - 1

    def reset(self) -> None:
        for i in range(len(self._table)):
            self._table[i] = _WEAK_TAKEN
