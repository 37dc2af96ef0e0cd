"""Optimizer interface shared by the global and local search methods."""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from repro.optim.result import OptimizationResult
from repro.utils.validation import check_bounds

Objective = Callable[[np.ndarray], float]


class Optimizer(abc.ABC):
    """A bounded, derivative-free minimizer.

    Subclasses implement :meth:`_minimize` on validated bounds; the public
    :meth:`minimize` handles bound normalization and sanity checks.
    """

    @abc.abstractmethod
    def _minimize(
        self,
        fun: Objective,
        lower: np.ndarray,
        upper: np.ndarray,
        x0: np.ndarray | None,
    ) -> OptimizationResult: ...

    def minimize(
        self,
        fun: Objective,
        bounds,
        x0: np.ndarray | None = None,
    ) -> OptimizationResult:
        """Minimize ``fun`` over the box ``bounds``.

        ``bounds`` is ``(dim, 2)`` rows of ``(lo, hi)``.  ``x0`` (optional)
        seeds optimizers that support warm starts; it must have shape
        ``(dim,)`` and is clipped into the box.
        """
        lower, upper = check_bounds(bounds)
        if x0 is not None:
            x0 = np.asarray(x0, dtype=float)
            # before clipping, which would broadcast a wrong shape
            if x0.shape != lower.shape:
                raise ValueError(
                    f"x0 has shape {x0.shape}, bounds cover {lower.shape[0]} dims"
                )
            x0 = np.clip(x0, lower, upper)
        return self._minimize(fun, lower, upper, x0)


class CountingObjective:
    """Wrap an objective to count evaluations and track the best point.

    Used both by optimizers that need a best-so-far trace and by the Fig. 2
    benchmark, which reports evaluations-per-optimization versus dimension.
    """

    def __init__(self, fun: Objective) -> None:
        self._fun = fun
        self.n_evaluations = 0
        self.best_x: np.ndarray | None = None
        self.best_f = np.inf
        self.history: list[tuple[int, float]] = []

    def __call__(self, x: np.ndarray) -> float:
        value = float(self._fun(np.asarray(x, dtype=float)))
        self.n_evaluations += 1
        if value < self.best_f:
            self.best_f = value
            self.best_x = np.array(x, dtype=float)
            self.history.append((self.n_evaluations, value))
        return value

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Score a ``(m, dim)`` batch, counting each row in order.

        Objectives exposing a batched ``evaluate(X) -> (m,)`` method (the
        acquisition functions) are called once for the whole batch; plain
        callables fall back to a row-by-row loop.  Best-so-far bookkeeping
        is identical to ``m`` sequential :meth:`__call__`\\ s.
        """
        X = np.asarray(X, dtype=float)
        batch = getattr(self._fun, "evaluate", None)
        if batch is not None:
            values = np.asarray(batch(X), dtype=float)
        else:
            values = np.array([float(self._fun(x)) for x in X], dtype=float)
        for i in range(X.shape[0]):
            self.n_evaluations += 1
            value = float(values[i])
            if value < self.best_f:
                self.best_f = value
                self.best_x = np.array(X[i], dtype=float)
                self.history.append((self.n_evaluations, value))
        return values
