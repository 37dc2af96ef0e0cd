"""Acquisition functions: PI, EI, LCB and the pBO weighting of Eq. 9."""

from repro.acquisition.base import AcquisitionFunction
from repro.acquisition.functions import (
    ExpectedImprovement,
    LowerConfidenceBound,
    MultiWeightAcquisition,
    ProbabilityOfImprovement,
    pbo_weights,
)

__all__ = [
    "AcquisitionFunction",
    "ProbabilityOfImprovement",
    "ExpectedImprovement",
    "LowerConfidenceBound",
    "MultiWeightAcquisition",
    "pbo_weights",
]
