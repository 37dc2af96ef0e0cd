"""The paper's acquisition functions: PI, EI, LCB and the pBO weighting.

All are written for *minimization* of the objective (circuit performance);
lower acquisition values are better.  ``WeightedAcquisition`` implements
Eq. 9, ``α_pBO(x; D, w) = (1 - w) μ(x; D) − w σ(x; D)``: ``w = 0`` is pure
exploitation of the posterior mean, ``w = 1`` pure exploration of posterior
uncertainty, and a batch of different ``w`` values yields the paper's
parallelizable multi-acquisition batch (Algorithm 1, line 7).
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm

from repro._typing import ArrayLike, FloatArray
from repro.acquisition.base import AcquisitionFunction
from repro.gp.surrogate import SurrogateModel
from repro.utils.contracts import shape_contract
from repro.utils.validation import as_matrix

#: Floor on the posterior std to keep z-scores finite at training points.
_MIN_STD = 1e-12


class ProbabilityOfImprovement(AcquisitionFunction):
    """Negated probability of improving below the incumbent minus ``xi``."""

    def __init__(self, gp: SurrogateModel, xi: float = 0.0) -> None:
        super().__init__(gp)
        if xi < 0:
            raise ValueError(f"xi must be non-negative, got {xi}")
        self.xi = float(xi)

    @shape_contract("X: a(m, d) | a(d,) -> (m,)")
    def evaluate(self, X: np.ndarray) -> np.ndarray:
        pred = self.gp.predict(as_matrix(X))
        std = np.maximum(pred.std, _MIN_STD)
        z = (self.incumbent - self.xi - pred.mean) / std
        return -np.asarray(norm.cdf(z), dtype=float)


class ExpectedImprovement(AcquisitionFunction):
    """Negated expected improvement below the incumbent minus ``xi``."""

    def __init__(self, gp: SurrogateModel, xi: float = 0.0) -> None:
        super().__init__(gp)
        if xi < 0:
            raise ValueError(f"xi must be non-negative, got {xi}")
        self.xi = float(xi)

    @shape_contract("X: a(m, d) | a(d,) -> (m,)")
    def evaluate(self, X: np.ndarray) -> np.ndarray:
        pred = self.gp.predict(as_matrix(X))
        std = np.maximum(pred.std, _MIN_STD)
        improvement = self.incumbent - self.xi - pred.mean
        z = improvement / std
        ei = np.asarray(
            improvement * norm.cdf(z) + std * norm.pdf(z), dtype=float
        )
        return -np.maximum(ei, 0.0)


class LowerConfidenceBound(AcquisitionFunction):
    """``μ(x) − κ σ(x)``, minimized directly."""

    def __init__(self, gp: SurrogateModel, kappa: float = 2.0) -> None:
        super().__init__(gp)
        if kappa < 0:
            raise ValueError(f"kappa must be non-negative, got {kappa}")
        self.kappa = float(kappa)

    @shape_contract("X: a(m, d) | a(d,) -> (m,)")
    def evaluate(self, X: np.ndarray) -> np.ndarray:
        pred = self.gp.predict(as_matrix(X))
        return pred.mean - self.kappa * pred.std


class WeightedAcquisition(AcquisitionFunction):
    """The pBO acquisition of Eq. 9: ``(1 − w) μ(x) − w σ(x)``."""

    def __init__(self, gp: SurrogateModel, weight: float) -> None:
        super().__init__(gp)
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {weight}")
        self.weight = float(weight)

    @shape_contract("X: a(m, d) | a(d,) -> (m,)")
    def evaluate(self, X: np.ndarray) -> np.ndarray:
        pred = self.gp.predict(as_matrix(X))
        return (1.0 - self.weight) * pred.mean - self.weight * pred.std


class MultiWeightAcquisition:
    """Eq. 9 for a whole weight ladder sharing one posterior evaluation.

    ``evaluate_segments(X, segments)`` is the multi-row search engines'
    objective: every live search contributes a block of pending candidates,
    the concatenated union goes through ``gp.predict`` once, and each block
    is reweighted under *its* weight — arithmetic identical to that
    weight's own :class:`WeightedAcquisition` evaluation.
    """

    def __init__(self, gp: SurrogateModel, weights: ArrayLike) -> None:
        if not gp.is_fitted:
            raise RuntimeError("acquisition functions require a fitted GP")
        w = np.asarray(weights, dtype=float).ravel()
        if w.size == 0:
            raise ValueError("at least one weight is required")
        if np.any(w < 0) or np.any(w > 1):
            raise ValueError("weights must lie in [0, 1]")
        self.gp = gp
        self.weights: FloatArray = w
        #: ``1 − w_i`` per weight, the posterior-mean coefficient of Eq. 9.
        self._mean_coeffs: FloatArray = 1.0 - w

    def evaluate_segments(self, X: np.ndarray, segments: ArrayLike) -> FloatArray:
        """Score a concatenated candidate union with one posterior call.

        ``segments`` holds ``(weight_index, length)`` pairs whose lengths
        sum to ``X.shape[0]``; segment ``j`` covers the next ``length`` rows
        of ``X`` and is scored under ``self.weights[weight_index]``.
        Returns the ``(m,)`` values of the whole union, one reweight by row
        index.
        """
        X = as_matrix(X)
        pairs = np.asarray(segments, dtype=np.intp).reshape(-1, 2)
        index, lengths = pairs[:, 0], pairs[:, 1]
        total = int(lengths.sum())
        if total != X.shape[0]:
            raise ValueError(
                f"segment lengths sum to {total}, union holds {X.shape[0]} rows"
            )
        n_weights = self.weights.shape[0]
        if np.any((index < 0) | (index >= n_weights)):
            raise IndexError(
                f"weight index {index.tolist()} outside ladder of "
                f"{n_weights} weights"
            )
        rows = np.repeat(index, lengths)
        pred = self.gp.predict(X)
        return self._mean_coeffs[rows] * pred.mean - self.weights[rows] * pred.std


@shape_contract("batch_size: n -> (n,)")
def pbo_weights(batch_size: int) -> np.ndarray:
    """The preset weight ladder ``w_1 … w_{n_b}`` for a pBO batch.

    Evenly spaced over ``[0, 1]`` so one batch spans pure exploitation to
    pure exploration, as the multi-acquisition scheme of [5] intends.  A
    batch of one degenerates to the balanced ``w = 0.5``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size == 1:
        return np.array([0.5], dtype=float)
    return np.linspace(0.0, 1.0, batch_size)
