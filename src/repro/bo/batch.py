"""Batch BO with the parallelizable multi-weight acquisition (pBO, [5]).

Per batch: fit the GP once, then optimize the weighted acquisition of Eq. 9
for each preset weight ``w_1 … w_{n_b}``, yielding ``n_b`` new simulation
points spanning exploitation (``w≈0``) through exploration (``w≈1``).  This
is the paper's "pBO" baseline when run in the full ``D``-dimensional space,
and the inner engine of the proposed method when run in an embedded space
(:class:`~repro.bo.rembo.RemboBO` subclasses :class:`BatchBO`).

The ``n_b`` searches are the rows of the one acquisition search
(:func:`~repro.bo.propose.acquisition_search`): each round's candidate
union is scored by ONE shared GP posterior evaluation and reweighted per
weight (:class:`~repro.acquisition.functions.MultiWeightAcquisition`), in
both the DIRECT-L and the COBYLA stage.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.acquisition.functions import MultiWeightAcquisition, pbo_weights
from repro.bo.engine import BOEngine, RunSpec
from repro.bo.propose import (
    DEFAULT_GLOBAL_BUDGET,
    DEFAULT_LOCAL_BUDGET,
    acquisition_search,
)
from repro.utils.rng import SeedLike

#: Engine default when ``RunSpec.n_batches`` is None.
DEFAULT_N_BATCHES = 5


class BatchBO(BOEngine):
    """Full-dimensional pBO (the paper's strongest non-embedded baseline).

    ``solve`` runs ``spec.n_batches`` batches of ``batch_size`` simulations
    each after the initial design; a spec that sets ``budget`` is rejected.

    Parameters
    ----------
    batch_size:
        Points per batch ``n_b``.
    weights:
        Preset acquisition weights; defaults to ``pbo_weights(batch_size)``.
    ard / noise_variance / tune_every / n_restarts:
        Surrogate knobs, see :class:`~repro.bo.engine.SurrogateManager`.
    global_budget / local_budget:
        Acquisition evaluation caps of the DIRECT-L and COBYLA stages of
        :func:`~repro.bo.propose.acquisition_search`, per weight.
    """

    _method = "pBO"
    _reads = ("n_batches", "initial_data")
    _spends = "RunSpec.n_batches"

    def __init__(
        self,
        batch_size: int,
        weights: Sequence[float] | None = None,
        ard: bool = True,
        noise_variance: float = 1e-4,
        tune_every: int = 1,
        n_restarts: int = 2,
        global_budget: int = DEFAULT_GLOBAL_BUDGET,
        local_budget: int = DEFAULT_LOCAL_BUDGET,
        seed: SeedLike = None,
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
            ard, noise_variance, tune_every, n_restarts, global_budget,
            local_budget, seed
        )

    def _n_iterations(self, spec: RunSpec, n_init: int) -> int:
        return spec.n_batches if spec.n_batches is not None else DEFAULT_N_BATCHES

    def _propose(self, model, box):
        return acquisition_search(
            MultiWeightAcquisition(model, self.weights).evaluate_segments,
            self.batch_size,
            box,
            self.global_budget,
            self.local_budget,
        )
