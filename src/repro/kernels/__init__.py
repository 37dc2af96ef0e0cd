"""The covariance function of the GP surrogate (paper Section 2.2.1)."""

from repro.kernels.base import KernelWorkspace, pairwise_sq_dists
from repro.kernels.stationary import Matern52

__all__ = ["KernelWorkspace", "Matern52", "pairwise_sq_dists"]
