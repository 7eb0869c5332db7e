"""Front-end branch unit: bimodal predictor + BTB + statistics.

One :class:`BranchUnit` lives in each thread unit.  The replay engine
feeds it every dynamic conditional branch; it answers whether the branch
*mispredicted* — the trigger for wrong-path load injection (§3.1.1) —
and maintains the counters the evaluation reports.
"""

from __future__ import annotations

from ..common.config import BranchPredictorConfig
from ..common.stats import CounterGroup
from ..obs.events import BRANCH_RESOLVE, CAT_BRANCH
from .btb import BranchTargetBuffer
from .predictors import BimodalPredictor

__all__ = ["BranchUnit"]


class BranchUnit:
    """Complete per-TU branch machinery."""

    __slots__ = (
        "cfg", "predictor", "btb", "stats", "_mispredict_penalty",
        "_obs", "_obs_tu",
    )

    def __init__(
        self,
        cfg: BranchPredictorConfig,
        name: str = "bpred",
        tracer=None,
        tu_id: int = 0,
    ) -> None:
        self.cfg = cfg
        self.predictor = BimodalPredictor(cfg.table_bits)
        self.btb = BranchTargetBuffer(cfg.btb_entries, cfg.btb_assoc)
        self.stats = CounterGroup(name)
        self._mispredict_penalty = cfg.mispredict_penalty
        self._obs = (
            tracer
            if tracer is not None and tracer.enabled and tracer.wants(CAT_BRANCH)
            else None
        )
        self._obs_tu = tu_id

    @property
    def mispredict_penalty(self) -> int:
        """Cycles charged per misprediction."""
        return self._mispredict_penalty

    def resolve(self, pc: int, taken: bool, target: int = 0) -> bool:
        """Predict the branch at ``pc``, train, and report misprediction.

        A *direction* mispredict always counts.  A correct taken
        prediction that misses in the BTB also counts (fetch could not be
        redirected), which is how real front ends behave on cold
        branches.

        Returns True when the branch mispredicted.
        """
        stats = self.stats
        stats.counter("branches").add()
        predicted_taken = self.predictor.predict(pc)
        mispredicted = predicted_taken != taken
        if predicted_taken:
            btb_target = self.btb.lookup(pc)
            if btb_target is None and not mispredicted:
                # Correct direction, unknown target: still a redirect.
                mispredicted = True
                stats.counter("btb_target_misses").add()
        self.predictor.update(pc, taken)
        if taken:
            self.btb.insert(pc, target if target else pc + 8)
        if mispredicted:
            stats.counter("mispredicts").add()
        if self._obs is not None:
            self._obs.emit(BRANCH_RESOLVE, self._obs_tu, pc, int(mispredicted))
        return mispredicted

    def mispredict_rate(self) -> float:
        """Fraction of resolved branches that mispredicted."""
        total = self.stats["branches"]
        return self.stats["mispredicts"] / total if total else 0.0

    def reset(self) -> None:
        """Clear predictor state and statistics."""
        self.predictor.reset()
        self.btb.reset()
        self.stats.reset()
