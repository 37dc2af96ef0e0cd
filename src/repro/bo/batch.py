"""Batch BO with the parallelizable multi-weight acquisition (pBO, [5]).

Per batch: fit the GP once, then optimize the weighted acquisition of Eq. 9
for each preset weight ``w_1 … w_{n_b}``, yielding ``n_b`` new simulation
points spanning exploitation (``w≈0``) through exploration (``w≈1``).  This
is the paper's "pBO" baseline when run in the full ``D``-dimensional space,
and the inner engine of the proposed method when run in an embedded space
(:class:`~repro.bo.rembo.RemboBO` subclasses :class:`BatchBO`).

With the DIRECT-L + COBYLA stack, :func:`~repro.bo.propose.propose_batch`
runs all ``n_b`` searches as the rows of one array search: each round's
candidate union is scored by ONE shared GP posterior evaluation and
reweighted per weight
(:class:`~repro.acquisition.functions.MultiWeightAcquisition`), in both the
global and the local refinement phase.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.acquisition.functions import pbo_weights
from repro.bo.engine import BOEngine, OptimizerFactory, RunSpec
from repro.bo.propose import propose_batch
from repro.gp.surrogate import KernelFactory, SurrogateLike
from repro.utils.rng import SeedLike

#: Engine default when ``RunSpec.n_batches`` is None.
DEFAULT_N_BATCHES = 5


class BatchBO(BOEngine):
    """Full-dimensional pBO (the paper's strongest non-embedded baseline).

    ``solve`` runs ``spec.n_batches`` batches of ``batch_size`` simulations
    each after the initial design.

    Parameters
    ----------
    batch_size:
        Points per batch ``n_b``.
    weights:
        Preset acquisition weights; defaults to ``pbo_weights(batch_size)``.
    surrogate:
        Engine-level surrogate choice (spec / kind string / mapping);
        ``spec.surrogate`` on an individual run overrides it.
    acquisition_optimizer_factory:
        ``dim -> optimizer`` building the DIRECT-L + COBYLA stack
        (:func:`~repro.acquisition.optimize.default_acquisition_optimizer`,
        any budgets); another stack raises ``TypeError`` at proposal.
    stop_on_failure:
        Stop before the next iteration once any observation so far, the
        initial data included, is below ``spec.threshold``.
    """

    _method = "pBO"

    def __init__(
        self,
        batch_size: int,
        weights: Sequence[float] | None = None,
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
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = int(batch_size)
        self.weights = (
            np.asarray(list(weights), dtype=float)
            if weights is not None
            else pbo_weights(self.batch_size)
        )
        if self.weights.shape[0] != self.batch_size:
            raise ValueError(
                f"{self.weights.shape[0]} weights given for batch size {self.batch_size}"
            )
        if np.any(self.weights < 0) or np.any(self.weights > 1):
            raise ValueError("weights must lie in [0, 1]")
        super().__init__(
            kernel_factory, noise_variance, tune_every, n_restarts,
            acquisition_optimizer_factory, stop_on_failure, seed, surrogate
        )

    def _n_iterations(self, spec: RunSpec, n_init: int) -> int:
        if spec.budget is not None:
            raise ValueError(
                f"{type(self).__name__} runs RunSpec.n_batches batches; "
                "it does not read budget"
            )
        return spec.n_batches if spec.n_batches is not None else DEFAULT_N_BATCHES

    def _propose(self, model, box):
        factory = self.acquisition_optimizer_factory
        return propose_batch(model, self.weights, box, optimizer_factory=factory)
