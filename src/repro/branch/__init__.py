"""Branch prediction: bimodal direction predictor, BTB, front-end unit."""

from .btb import BranchTargetBuffer
from .frontend import BranchUnit
from .predictors import BimodalPredictor

__all__ = [
    "BranchTargetBuffer",
    "BranchUnit",
    "BimodalPredictor",
]
