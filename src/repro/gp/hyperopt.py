"""GP hyperparameter fitting by maximizing the log marginal likelihood.

Multi-start L-BFGS-B over the log-hyperparameter vector, using the analytic
gradient of Eq. 8.  Restart count is deliberately small — the paper notes GP
hyperparameter tuning is itself a cost center (Section 3), so the default
mirrors a practical BO inner loop rather than an exhaustive fit.

The search accepts any :class:`~repro.gp.surrogate.SurrogateModel` and
never mutates the model mid-search.  An exact
:class:`~repro.gp.model.GaussianProcess` is scored through a
:class:`~repro.gp.evaluator.MarginalLikelihoodEvaluator`, which fuses the
likelihood value and gradient into one evaluation over a cached kernel
workspace; any other surrogate is scored through its side-effect-free
``evaluate_theta`` (the sparse GP's variational bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from repro.gp.evaluator import MarginalLikelihoodEvaluator
from repro.gp.model import GaussianProcess
from repro.gp.surrogate import SurrogateModel
from repro.telemetry.profile import profiled
from repro.utils.rng import SeedLike, as_generator


@dataclass
class HyperoptResult:
    """Outcome of one marginal-likelihood maximization."""

    theta: np.ndarray
    log_marginal_likelihood: float
    n_restarts: int
    n_evaluations: int


@profiled("gp.hyperopt.fit")
def fit_hyperparameters(
    gp: SurrogateModel,
    n_restarts: int = 3,
    seed: SeedLike = None,
    max_iter: int = 100,
) -> HyperoptResult:
    """Fit ``gp``'s hyperparameters in place and return the best result.

    The first start is the current hyperparameter vector; the remaining
    starts are drawn uniformly inside the log-space bounds.  The model is
    left conditioned at the best hyperparameters found.

    Trial points are scored without mutating the model: an exact
    :class:`GaussianProcess` goes through a
    :class:`MarginalLikelihoodEvaluator` (one Cholesky and one ``K⁻¹`` per
    evaluation over a cached workspace), and any other surrogate through
    its ``evaluate_theta(theta) -> (lml, grad)``.  A surrogate with neither
    raises ``TypeError``.
    """
    if not gp.is_fitted:
        raise RuntimeError("fit the GP on data before tuning hyperparameters")
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray]]
    if isinstance(gp, GaussianProcess):
        evaluate = MarginalLikelihoodEvaluator(gp).evaluate
    else:
        hook = getattr(gp, "evaluate_theta", None)
        if not callable(hook):
            raise TypeError(
                f"{type(gp).__name__} cannot be tuned: hyperparameter search "
                "needs an exact GaussianProcess or a surrogate with "
                "evaluate_theta(theta) -> (lml, grad)"
            )
        evaluate = hook
    rng = as_generator(seed)
    bounds = gp.theta_bounds()
    lower, upper = bounds[:, 0], bounds[:, 1]
    evaluations = 0

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        try:
            lml, grad = evaluate(theta)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros_like(theta)
        if not np.isfinite(lml):
            return 1e25, np.zeros_like(theta)
        return -lml, -grad

    starts = [gp.theta.copy()]
    for _ in range(n_restarts - 1):
        starts.append(rng.uniform(lower, upper))

    best_theta = gp.theta.copy()
    best_lml = -np.inf
    for start in starts:
        start = np.clip(start, lower, upper)
        result = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lower, upper)),
            options={"maxiter": max_iter},
        )
        if np.isfinite(result.fun) and -result.fun > best_lml:
            best_lml = -result.fun
            best_theta = result.x.copy()

    gp.theta = best_theta
    return HyperoptResult(
        theta=best_theta,
        log_marginal_likelihood=best_lml,
        n_restarts=n_restarts,
        n_evaluations=evaluations,
    )
