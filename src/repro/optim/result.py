"""Common result record for every gradient-free optimizer in the library."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class OptimizationResult:
    """Outcome of a bounded minimization run.

    Attributes
    ----------
    x:
        Best point found.
    fun:
        Objective value at ``x``.
    n_evaluations:
        Number of objective evaluations consumed.
    n_iterations:
        Algorithm-level iterations (meaning differs per optimizer).
    success:
        True when the optimizer terminated by its own convergence test
        rather than by exhausting the evaluation budget.
    message:
        Human-readable termination reason.
    history:
        Optional best-so-far trace ``(n_evaluations_at_improvement, f)``.
    """

    x: np.ndarray
    fun: float
    n_evaluations: int
    n_iterations: int
    success: bool
    message: str = ""
    history: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.fun = float(self.fun)


@dataclass
class RowOutcome:
    """Per-row outcome of a multi-row search: row ``i`` holds what the
    ``i``-th optimizer's own :meth:`~repro.optim.base.Optimizer.minimize`
    would report.

    Attributes
    ----------
    x:
        ``(n, d)`` best point per row.
    fun:
        ``(n,)`` objective value at each row's ``x``.
    n_evaluations, n_iterations:
        ``(n,)`` evaluation and iteration counts.
    success:
        ``(n,)`` whether each row stopped by its own convergence test.
    message:
        Termination reason per row.
    """

    x: np.ndarray
    fun: np.ndarray
    n_evaluations: np.ndarray
    n_iterations: np.ndarray
    success: np.ndarray
    message: list[str]
