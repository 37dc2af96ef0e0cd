"""Global-then-local composition, the paper's acquisition-optimization recipe.

Section 5.1: "DIRECT_L for global optimization and COBYLA for local
optimization".  :class:`GlobalLocalOptimizer` runs any global method for a
budget, then polishes the incumbent with any local method started there.
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import Objective, Optimizer
from repro.optim.result import OptimizationResult


class GlobalLocalOptimizer(Optimizer):
    """Run ``global_optimizer`` then refine with ``local_optimizer``.

    Parameters
    ----------
    local_radius:
        When set, the local stage searches only the neighborhood
        ``incumbent ± local_radius · span`` (intersected with the box):
        the local optimizer *polishes within the global stage's basin*
        instead of being free to crawl across the whole domain.  This is
        what "local optimization" means in the paper's DIRECT_L + COBYLA
        stack — and it is what keeps a capped acquisition search in a
        high-dimensional space from teleporting to far corners the global
        stage never justified.
    """

    def __init__(
        self,
        global_optimizer: Optimizer,
        local_optimizer: Optimizer,
        local_radius: float | None = None,
    ) -> None:
        if local_radius is not None and not 0.0 < local_radius <= 1.0:
            raise ValueError(
                f"local_radius must lie in (0, 1], got {local_radius}"
            )
        self.global_optimizer = global_optimizer
        self.local_optimizer = local_optimizer
        self.local_radius = local_radius

    def _minimize(
        self,
        fun: Objective,
        lower: np.ndarray,
        upper: np.ndarray,
        x0: np.ndarray | None,
    ) -> OptimizationResult:
        bounds = np.column_stack([lower, upper])
        coarse = self.global_optimizer.minimize(fun, bounds, x0=x0)
        if self.local_radius is not None:
            radius = self.local_radius * (upper - lower)
            local_lower = np.maximum(lower, coarse.x - radius)
            local_upper = np.minimum(upper, coarse.x + radius)
            local_bounds = np.column_stack([local_lower, local_upper])
        else:
            local_bounds = bounds
        refined = self.local_optimizer.minimize(fun, local_bounds, x0=coarse.x)
        if refined.fun <= coarse.fun:
            best_x, best_f = refined.x, refined.fun
        else:
            best_x, best_f = coarse.x, coarse.fun
        return OptimizationResult(
            x=best_x,
            fun=best_f,
            n_evaluations=coarse.n_evaluations + refined.n_evaluations,
            n_iterations=coarse.n_iterations + refined.n_iterations,
            success=coarse.success or refined.success,
            message=f"global: {coarse.message}; local: {refined.message}",
            history=coarse.history
            + [
                (n + coarse.n_evaluations, f)
                for n, f in refined.history
                if f < coarse.fun
            ],
        )
