"""Result records shared by every BO engine and sampling baseline.

The paper's tables report, per method: the number of simulations, the worst
performance found, the index of the first detected failure, and runtime.
``RunResult`` keeps the full evaluation log so all of those derive from one
object; each engine's ``solve`` builds it from the rows it submitted to
the broker and the values the broker returned.
``FailureSummary`` is the table-row view against a specification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import as_matrix, as_vector


@dataclass
class RunResult:
    """Complete log of one failure-detection / optimization run.

    Attributes
    ----------
    X:
        Evaluated points in the original variation space, in query order.
    y:
        Objective values, in *minimization* orientation (lower = worse
        performance = closer to failure, per paper Eq. 2).
    n_init:
        How many leading rows are initial (non-adaptive) samples.
    method:
        Short method label (``"MC"``, ``"EI"``, ``"REMBO-pBO"``, ...).
    eval_seconds:
        Time spent inside objective evaluations (simulations) only.
    overhead_seconds:
        Everything else — surrogate fits, acquisition optimization,
        bookkeeping.  Total wall clock is the derived
        :attr:`total_seconds` property (the old stored
        ``runtime_seconds`` field completed its deprecation cycle).
    acquisition_evaluations:
        Total acquisition-function evaluations spent (0 for samplers).
    model_dim:
        Dimensionality the surrogate worked in (D, or d under embedding).
    Z:
        Embedded-space points for REMBO runs, one per row of ``X``: the
        first rows are ``clip(A† x)`` of the initial data, the rest the
        proposals ``x = p_Ω(A z)`` was computed from (None otherwise).
    """

    X: np.ndarray
    y: np.ndarray
    n_init: int
    method: str = ""
    eval_seconds: float = 0.0
    overhead_seconds: float = 0.0
    acquisition_evaluations: int = 0
    model_dim: int | None = None
    Z: np.ndarray | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.X = as_matrix(self.X)
        self.y = as_vector(self.y, self.X.shape[0])
        if not 0 <= self.n_init <= self.X.shape[0]:
            raise ValueError(
                f"n_init={self.n_init} outside [0, {self.X.shape[0]}]"
            )

    @property
    def total_seconds(self) -> float:
        """Total wall clock: evaluation time plus everything else."""
        return self.eval_seconds + self.overhead_seconds

    @property
    def n_evaluations(self) -> int:
        return self.X.shape[0]

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.y))

    @property
    def best_x(self) -> np.ndarray:
        return self.X[self.best_index]

    @property
    def best_y(self) -> float:
        return float(self.y[self.best_index])

    def summarize(self, threshold: float) -> "FailureSummary":
        """Summarize against a minimization threshold (failure iff y < T)."""
        failures = np.flatnonzero(self.y < threshold)
        first = int(failures[0]) + 1 if failures.size else None  # 1-based
        return FailureSummary(
            method=self.method,
            n_simulations=self.n_evaluations,
            worst_value=self.best_y,
            n_failures=int(failures.size),
            first_failure_index=first,
            total_seconds=self.total_seconds,
            failure_indices=failures,
        )


@dataclass
class FailureSummary:
    """One table row: a method's outcome against one specification."""

    method: str
    n_simulations: int
    worst_value: float
    n_failures: int
    first_failure_index: int | None
    total_seconds: float
    failure_indices: np.ndarray = field(default_factory=lambda: np.empty(0, int))

    @property
    def detected(self) -> bool:
        return self.n_failures > 0
