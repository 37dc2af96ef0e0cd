"""The per-row result record of the multi-row search engines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RowOutcome:
    """Per-row outcome of a multi-row search: row ``i`` holds what the
    ``i``-th search would report run alone.

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
