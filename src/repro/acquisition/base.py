"""Acquisition-function interface (paper Section 2.2.2).

The paper formulates failure detection as *minimization* of the circuit
performance, so every acquisition here follows the convention that **lower
acquisition values mark better sampling locations** and the next point is
``argmin α(x)``.  Maximization-style acquisitions (EI, PI) are negated.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.gp.surrogate import SurrogateModel


class AcquisitionFunction(abc.ABC):
    """A sampling criterion built on a fitted GP surrogate."""

    def __init__(self, gp: SurrogateModel) -> None:
        if not gp.is_fitted:
            raise RuntimeError("acquisition functions require a fitted GP")
        self.gp = gp

    @property
    def incumbent(self) -> float:
        """Best (lowest) observed label so far."""
        return float(np.min(self.gp.y_train))

    @abc.abstractmethod
    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Vectorized acquisition at each row of ``X`` (lower is better)."""
