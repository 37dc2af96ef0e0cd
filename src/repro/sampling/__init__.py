"""Sampling baselines: MC, SSS and space-filling designs."""

from repro.sampling.designs import halton, latin_hypercube
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
    "latin_hypercube",
    "halton",
]
