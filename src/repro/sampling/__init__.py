"""Sampling baselines: MC and SSS."""

from repro.sampling.monte_carlo import MonteCarloSampler
from repro.sampling.sss import (
    NOMINAL_SIGMA_FRACTION,
    ScaledSigmaSampler,
    SSSModelFit,
)

__all__ = [
    "MonteCarloSampler",
    "ScaledSigmaSampler",
    "SSSModelFit",
    "NOMINAL_SIGMA_FRACTION",
]
