"""The proposed method: batch BO through a random embedding (Algorithm 1).

This is the paper's contribution assembled end-to-end:

1. select an embedding dimension ``d`` from the initial dataset
   (Algorithm 2), unless the caller fixes one,
2. sample a Gaussian random matrix ``A ∈ R^{D×d}``,
3. map the initial samples down via the pseudo-inverse ``z = A† x`` and
   build the initial GP in the embedded space,
4. per batch, optimize the weighted acquisition ``α_pBO(z; D, w_i)`` for
   each preset weight over ``Z = [-√d, √d]^d``, map each optimizer output
   to the variation space through ``x = p_Ω(A z)``, simulate, collect
   failures ``y < T`` and update the model.

Steps 1-3 build the embedded :class:`~repro.bo.engine.ModelSpace`; step 4
is :class:`~repro.bo.batch.BatchBO`'s pBO proposal run in that space by
the shared campaign loop.  Both GP training and acquisition optimization
happen in ``d`` dimensions, which is where the method's runtime and
solution-quality advantages come from (paper Sections 3-4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bo.batch import BatchBO
from repro.bo.engine import ModelSpace
from repro.bo.propose import DEFAULT_GLOBAL_BUDGET, DEFAULT_LOCAL_BUDGET
from repro.embedding.dimension_selection import (
    DimensionSelectionResult,
    select_embedding_dimension,
)
from repro.embedding.random_embedding import RandomEmbedding
from repro.utils.rng import SeedLike


class RemboBO(BatchBO):
    """Random-embedding batch BO for failure detection (Algorithm 1).

    ``solve`` runs ``spec.n_batches`` pBO batches in the embedded space.
    The result's ``Z`` holds the embedded point of every row of ``X``, and
    its ``extra`` dict carries the fitted :class:`RandomEmbedding`
    (``"embedding"``), ``"embedding_dim"`` and, when Algorithm 2 ran, its
    :class:`DimensionSelectionResult` (``"dimension_selection"``).
    ``telemetry`` additionally receives ``dimension_selection`` /
    ``embedding_setup`` spans and a per-iteration ``clip_fraction``
    attribute (how much of ``A z`` the projection ``p_Ω`` moved).

    Parameters
    ----------
    batch_size:
        Points per batch ``n_b`` (the paper uses 19 for the UVLO, 70 for
        the LDO).
    embedding_dim:
        Fixed embedding dimension ``d``.  When None, Algorithm 2 selects it
        from the initial dataset.
    dimension_candidates / dimension_trials / dimension_tolerance:
        Forwarded to :func:`select_embedding_dimension` when
        ``embedding_dim`` is None.
    weights:
        Preset pBO weights; defaults to an even ladder over [0, 1].
    ard / noise_variance / tune_every / n_restarts:
        Surrogate knobs for the GP in the embedded space, see
        :class:`~repro.bo.engine.SurrogateManager`.
    global_budget / local_budget:
        Acquisition evaluation caps of the DIRECT-L and COBYLA stages of
        :func:`~repro.bo.propose.acquisition_search`, per weight, in the
        embedded box.
    """

    _method = "REMBO-pBO"
    _n_streams = 4  # initial design, dimension selection, embedding, model

    def __init__(
        self,
        batch_size: int,
        embedding_dim: int | None = None,
        dimension_candidates: Sequence[int] | None = None,
        dimension_trials: int = 5,
        dimension_tolerance: float = 0.1,
        weights: Sequence[float] | None = None,
        ard: bool = True,
        noise_variance: float = 1e-4,
        tune_every: int = 1,
        n_restarts: int = 2,
        global_budget: int = DEFAULT_GLOBAL_BUDGET,
        local_budget: int = DEFAULT_LOCAL_BUDGET,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(
            batch_size, weights, ard, noise_variance, tune_every, n_restarts,
            global_budget, local_budget, seed,
        )
        if embedding_dim is not None and embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1, got {embedding_dim}")
        self.embedding_dim = embedding_dim
        self.dimension_candidates = dimension_candidates
        self.dimension_trials = int(dimension_trials)
        self.dimension_tolerance = float(dimension_tolerance)

    def _model_space(self, X, y, box, rngs, tracer):
        rng_dimsel, rng_embed = rngs
        D = box.shape[0]
        # Algorithm 1, line 1: select the embedding dimension from D_0
        selection: DimensionSelectionResult | None = None
        if self.embedding_dim is not None:
            d = int(self.embedding_dim)
            if d > D:
                raise ValueError(f"embedding_dim {d} exceeds problem dim {D}")
        else:
            candidates = self.dimension_candidates or _default_candidates(D)
            with tracer.span(
                "dimension_selection", n_candidates=len(list(candidates))
            ) as span:
                selection = select_embedding_dimension(
                    X,
                    y,
                    dims=candidates,
                    n_trials=self.dimension_trials,
                    tolerance=self.dimension_tolerance,
                    seed=rng_dimsel,
                )
                d = selection.selected_dim
                span.set("selected_dim", d)

        # line 2: sample the random matrix A
        # line 3: initial model in the embedded space via the pseudo-inverse
        with tracer.span("embedding_setup", D=D, d=d):
            embedding = RandomEmbedding(D, d, bounds=box, seed=rng_embed)
            space = _EmbeddedSpace(embedding, selection)
            Z = np.clip(embedding.to_embedded(X), space.box[:, 0], space.box[:, 1])
        return space, Z


class _EmbeddedSpace(ModelSpace):
    """The box ``[-√d, √d]^d``; proposals map to ``x = p_Ω(A z)``."""

    def __init__(self, embedding, selection) -> None:
        super().__init__(embedding.z_bounds())
        self.embedding = embedding
        self.extra: dict = {
            "embedding": embedding,
            "embedding_dim": embedding.embedded_dim,
        }
        if selection is not None:
            self.extra["dimension_selection"] = selection

    def to_design(self, Z, span):
        # x = p_Omega(A z), Eq. 11; clip_fraction is the telemetry
        # signal for the embedding pressing against the box
        X, clip_fraction = self.embedding.project(Z)
        span.set("clip_fraction", clip_fraction)
        return X

    def result_fields(self, Z):
        return {"Z": Z, "extra": self.extra}


def _default_candidates(D: int) -> list[int]:
    """A coarse dimension ladder so Algorithm 2 stays cheap for large D."""
    if D <= 12:
        return list(range(1, D + 1))
    ladder = sorted({1, 2, 4, 6, 8, 12, 16, 20, 25, 30, 40, 50, D})
    return [d for d in ladder if d <= D]
