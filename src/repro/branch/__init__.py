"""Branch prediction: direction predictors, BTB, front-end unit."""

from .btb import BranchTargetBuffer
from .frontend import BranchUnit
from .predictors import (
    BimodalPredictor,
    CombiningPredictor,
    DirectionPredictor,
    GsharePredictor,
    TwoLevelPredictor,
    make_predictor,
)

__all__ = [
    "BranchTargetBuffer",
    "BranchUnit",
    "BimodalPredictor",
    "CombiningPredictor",
    "DirectionPredictor",
    "GsharePredictor",
    "TwoLevelPredictor",
    "make_predictor",
]
