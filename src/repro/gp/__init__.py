"""Gaussian-process surrogate modeling (paper Section 2.2.1, Eqs. 3-8)."""

from repro.gp.evaluator import MarginalLikelihoodEvaluator
from repro.gp.hyperopt import HyperoptResult, fit_hyperparameters
from repro.gp.model import GaussianProcess, GPPrediction
from repro.gp.sparse import SparseGaussianProcess, select_inducing_points
from repro.gp.standardize import Standardizer
from repro.gp.surrogate import (
    SURROGATE_KINDS,
    SurrogateLike,
    SurrogateModel,
    SurrogateSpec,
    coerce_surrogate_spec,
    make_surrogate,
)

__all__ = [
    "GaussianProcess",
    "GPPrediction",
    "MarginalLikelihoodEvaluator",
    "SURROGATE_KINDS",
    "SparseGaussianProcess",
    "SurrogateLike",
    "SurrogateModel",
    "SurrogateSpec",
    "coerce_surrogate_spec",
    "fit_hyperparameters",
    "HyperoptResult",
    "make_surrogate",
    "select_inducing_points",
    "Standardizer",
]
