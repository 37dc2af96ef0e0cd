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
from repro.bo.engine import BOEngine, RunSpec
from repro.bo.propose import (
    DEFAULT_GLOBAL_BUDGET,
    DEFAULT_LOCAL_BUDGET,
    acquisition_search,
)
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
    design included, one point per iteration; a spec that sets
    ``n_batches`` is rejected.

    Parameters
    ----------
    acquisition:
        ``"ei"``, ``"pi"`` or ``"lcb"``.
    xi / kappa:
        Acquisition hyperparameters (improvement margin; LCB weight); both
        must be non-negative.
    ard / noise_variance / tune_every / n_restarts:
        Surrogate knobs, see :class:`SurrogateManager`.
    global_budget / local_budget:
        Acquisition evaluation caps of the DIRECT-L and COBYLA stages of
        :func:`~repro.bo.propose.acquisition_search`, which each iteration
        runs on one row.
    """

    _reads = ("budget", "initial_data")
    _spends = "RunSpec.budget"

    def __init__(
        self,
        acquisition: str = "ei",
        xi: float = 0.0,
        kappa: float = 2.0,
        ard: bool = True,
        noise_variance: float = 1e-4,
        tune_every: int = 1,
        n_restarts: int = 2,
        global_budget: int = DEFAULT_GLOBAL_BUDGET,
        local_budget: int = DEFAULT_LOCAL_BUDGET,
        seed: SeedLike = None,
    ) -> None:
        if acquisition not in ACQUISITIONS:
            raise ValueError(
                f"unknown acquisition {acquisition!r}; options: {sorted(ACQUISITIONS)}"
            )
        # the acquisition constructors' checks, before any simulation
        if xi < 0:
            raise ValueError(f"xi must be non-negative, got {xi}")
        if kappa < 0:
            raise ValueError(f"kappa must be non-negative, got {kappa}")
        self.acquisition = acquisition
        self._method = acquisition.upper()
        self.xi = float(xi)
        self.kappa = float(kappa)
        super().__init__(
            ard, noise_variance, tune_every, n_restarts, global_budget,
            local_budget, seed
        )

    def _n_iterations(self, spec: RunSpec, n_init: int) -> int:
        budget = spec.budget if spec.budget is not None else DEFAULT_BUDGET
        if budget < n_init:
            raise ValueError(f"budget {budget} smaller than initial design {n_init}")
        return budget - n_init

    def _propose(self, model, box):
        acquisition = ACQUISITIONS[self.acquisition](model, self.xi, self.kappa)
        return acquisition_search(
            lambda X, segments: acquisition.evaluate(X),
            1,
            box,
            self.global_budget,
            self.local_budget,
        )
