"""Sequential single-acquisition Bayesian optimization (paper Section 2.2).

This is the "traditional BO" family of the paper's comparison: one GP in
the full ``D``-dimensional space, one acquisition (EI / PI / LCB) optimized
per iteration, one simulation per iteration.  Its failure on the 19- and
60-dimensional testbenches is half of the paper's headline result.
"""

from __future__ import annotations

from repro.acquisition.functions import (
    ExpectedImprovement,
    LowerConfidenceBound,
    ProbabilityOfImprovement,
)
from repro.bo.engine import BOEngine, OptimizerFactory, RunSpec
from repro.bo.propose import BatchProposal
from repro.gp.surrogate import KernelFactory, SurrogateLike
from repro.utils.rng import SeedLike

#: Acquisition registry used by the experiment harness ("EI", "PI", "LCB").
ACQUISITIONS = {
    "ei": lambda gp, xi, kappa: ExpectedImprovement(gp, xi=xi),
    "pi": lambda gp, xi, kappa: ProbabilityOfImprovement(gp, xi=xi),
    "lcb": lambda gp, xi, kappa: LowerConfidenceBound(gp, kappa=kappa),
}

#: Engine default when ``RunSpec.budget`` is None.
DEFAULT_BUDGET = 100


class SequentialBO(BOEngine):
    """Classic one-point-per-iteration BO over a box.

    ``solve`` spends ``spec.budget`` evaluations in total, the initial
    design included, one point per iteration.

    Parameters
    ----------
    acquisition:
        ``"ei"``, ``"pi"`` or ``"lcb"``.
    xi / kappa:
        Acquisition hyperparameters (improvement margin; LCB weight).
    kernel_factory / noise_variance / tune_every / n_restarts:
        Surrogate knobs, see :class:`SurrogateManager`.
    surrogate:
        Engine-level surrogate choice (spec / kind string / mapping);
        ``spec.surrogate`` on an individual run overrides it.
    acquisition_optimizer_factory:
        Builds the inner optimizer for a given dimension; defaults to the
        paper's DIRECT-L + COBYLA stack.
    stop_on_failure:
        Stop before the next iteration once any observation so far, the
        initial data included, is below ``spec.threshold``.
    """

    def __init__(
        self,
        acquisition: str = "ei",
        xi: float = 0.0,
        kappa: float = 2.0,
        kernel_factory: KernelFactory | None = None,
        noise_variance: float = 1e-4,
        tune_every: int = 1,
        n_restarts: int = 2,
        acquisition_optimizer_factory: OptimizerFactory | None = None,
        stop_on_failure: bool = False,
        seed: SeedLike = None,
        *,
        surrogate: SurrogateLike = None,
    ) -> None:
        if acquisition not in ACQUISITIONS:
            raise ValueError(
                f"unknown acquisition {acquisition!r}; options: {sorted(ACQUISITIONS)}"
            )
        self.acquisition = acquisition
        self._method = acquisition.upper()
        self.xi = float(xi)
        self.kappa = float(kappa)
        super().__init__(
            kernel_factory, noise_variance, tune_every, n_restarts,
            acquisition_optimizer_factory, stop_on_failure, seed, surrogate
        )

    def _n_iterations(self, spec: RunSpec, n_init: int) -> int:
        if spec.n_batches is not None:
            raise ValueError(
                "SequentialBO spends RunSpec.budget; it does not read n_batches"
            )
        budget = spec.budget if spec.budget is not None else DEFAULT_BUDGET
        if budget < n_init:
            raise ValueError(f"budget {budget} smaller than initial design {n_init}")
        return budget - n_init

    def _propose(self, model, box):
        acquisition = ACQUISITIONS[self.acquisition](model, self.xi, self.kappa)
        optimizer = self.acquisition_optimizer_factory(box.shape[0])
        result = optimizer.minimize(acquisition, box)
        return BatchProposal(X=result.x[None, :], n_evaluations=result.n_evaluations)
