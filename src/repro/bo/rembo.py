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

Both GP training and acquisition optimization happen in ``d`` dimensions,
which is where the method's runtime and solution-quality advantages come
from (paper Sections 3-4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.acquisition.functions import pbo_weights
from repro.acquisition.optimize import default_acquisition_optimizer
from repro.bo.engine import (
    OptimizerFactory,
    RunSpec,
    SurrogateManager,
    annotate_gp_fit,
    resolve_bounds,
    uniform_initial_design,
)
from repro.gp.surrogate import (
    KernelFactory,
    SurrogateLike,
    coerce_surrogate_spec,
)
from repro.bo.propose import propose_batch
from repro.bo.records import RunRecorder, RunResult
from repro.embedding.dimension_selection import (
    DimensionSelectionResult,
    select_embedding_dimension,
)
from repro.embedding.random_embedding import RandomEmbedding
from repro.runtime.broker import RuntimePolicy, make_broker
from repro.runtime.objective import Objective, require_objective
from repro.telemetry.config import TelemetryLike, resolve_telemetry
from repro.utils.contracts import shape_contract
from repro.utils.rng import SeedLike, as_generator, spawn
from repro.utils.timing import Timer
from repro.utils.validation import as_matrix, as_vector

#: Engine default when ``RunSpec.n_batches`` is None.
DEFAULT_N_BATCHES = 5


class RemboBO:
    """Random-embedding batch BO for failure detection (Algorithm 1).

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
    acquisition_optimizer_factory:
        ``dim -> optimizer`` building the DIRECT-L + COBYLA stack
        (:func:`~repro.acquisition.optimize.default_acquisition_optimizer`,
        any budgets); another stack raises ``TypeError`` at proposal.
    surrogate:
        Engine-level surrogate choice (spec / kind string / mapping);
        ``spec.surrogate`` on an individual run overrides it.
    stop_on_failure:
        Terminate at the end of the first batch containing a failure.
    """

    def __init__(
        self,
        batch_size: int,
        embedding_dim: int | None = None,
        dimension_candidates: Sequence[int] | None = None,
        dimension_trials: int = 5,
        dimension_tolerance: float = 0.1,
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
        if embedding_dim is not None and embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1, got {embedding_dim}")
        self.batch_size = int(batch_size)
        self.embedding_dim = embedding_dim
        self.dimension_candidates = dimension_candidates
        self.dimension_trials = int(dimension_trials)
        self.dimension_tolerance = float(dimension_tolerance)
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
        self.kernel_factory = kernel_factory
        self.noise_variance = float(noise_variance)
        self.tune_every = int(tune_every)
        self.n_restarts = int(n_restarts)
        self.surrogate = coerce_surrogate_spec(surrogate)
        self.acquisition_optimizer_factory = (
            acquisition_optimizer_factory or default_acquisition_optimizer
        )
        self.stop_on_failure = bool(stop_on_failure)
        self._rng = as_generator(seed)

    def solve(
        self,
        *,
        objective: Objective,
        spec: RunSpec | None = None,
        policy: RuntimePolicy | None = None,
        telemetry: TelemetryLike = None,
        rng: SeedLike = None,
    ) -> RunResult:
        """Execute Algorithm 1; returns the full evaluation log.

        The result's ``extra`` dict carries the fitted
        :class:`RandomEmbedding` (``"embedding"``) and, when Algorithm 2
        ran, its :class:`DimensionSelectionResult` (``"dimension_selection"``).
        ``telemetry`` additionally receives ``dimension_selection`` /
        ``embedding_setup`` spans and a per-iteration ``clip_fraction``
        attribute (how much of ``A z`` the projection ``p_Ω`` moved).
        """
        objective = require_objective(objective, type(self).__name__)
        spec = spec if spec is not None else RunSpec()
        tele = resolve_telemetry(telemetry)
        tracer = tele.tracer
        lower, upper, box = resolve_bounds(objective, spec.bounds)
        D = lower.shape[0]
        base_rng = as_generator(rng) if rng is not None else self._rng
        rng_init, rng_dimsel, rng_embed, rng_model = spawn(base_rng, 4)
        n_batches = (
            spec.n_batches if spec.n_batches is not None else DEFAULT_N_BATCHES
        )
        threshold = spec.threshold

        recorder = RunRecorder(method="REMBO-pBO")
        broker = make_broker(
            objective,
            policy,
            recorder=recorder,
            method="REMBO-pBO",
            telemetry=tele,
        )

        timer = Timer().start()
        # initial dataset D_0, sampled (or supplied) in the original space
        if spec.initial_data is not None:
            X = as_matrix(spec.initial_data[0], D).copy()
            y = as_vector(spec.initial_data[1], X.shape[0]).copy()
            recorder.record_initial(X, y)
        else:
            with tracer.span("init_design", n_init=spec.n_init) as span:
                X0 = uniform_initial_design(box, spec.n_init, seed=rng_init)
                batch = broker.evaluate_batch(X0)
                span.set("n_evaluated", batch.n_evaluated)
            recorder.mark_initial()
            X, y = batch.X, batch.y
        if y.size == 0:
            raise ValueError(
                "no initial evaluations survived the failure policy; "
                "cannot fit a surrogate"
            )

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
            z_box = embedding.z_bounds()
            z_lower, z_upper = z_box[:, 0], z_box[:, 1]
            Z = embedding.to_embedded(X)
            Z = np.clip(Z, z_lower, z_upper)
        manager = SurrogateManager(
            d,
            kernel_factory=self.kernel_factory,
            noise_variance=self.noise_variance,
            tune_every=self.tune_every,
            n_restarts=self.n_restarts,
            seed=rng_model,
            surrogate=(
                spec.surrogate if spec.surrogate is not None else self.surrogate
            ),
        )
        recorder.model_dim = d

        # lines 5-15: batched sequential design
        for iteration in range(n_batches):
            with tracer.span("iteration", index=iteration) as it_span:
                with tracer.span("gp_fit", n_train=int(y.size)) as fit_span:
                    gp = manager.refit(Z, y)
                    annotate_gp_fit(fit_span, manager)
                with tracer.span("acq_opt") as acq_span:
                    proposal = propose_batch(
                        gp,
                        self.weights,
                        z_box,
                        optimizer_factory=self.acquisition_optimizer_factory,
                    )
                    acq_span.set("fevals", proposal.n_evaluations)
                recorder.add_acquisition(proposal.n_evaluations)
                new_Z = np.clip(proposal.X, z_lower, z_upper)
                # x = p_Omega(A z), Eq. 11; clip_fraction is the telemetry
                # signal for the embedding pressing against the box
                new_X, clip_fraction = embedding.project(new_Z)
                it_span.set("clip_fraction", clip_fraction)
                batch = broker.evaluate_batch(new_X)
                it_span.set("n_evaluated", batch.n_evaluated)
            if batch.n_evaluated:
                # under the skip policy only evaluated rows (batch.index)
                # enter the model — keep Z aligned with X row for row
                Z = np.vstack([Z, new_Z[batch.index]])
                X = np.vstack([X, batch.X])
                y = np.concatenate([y, batch.y])
            if (
                self.stop_on_failure
                and threshold is not None
                and batch.n_evaluated
                and np.min(batch.y) < threshold
            ):
                break
        timer.stop()

        extra: dict = {"embedding": embedding, "embedding_dim": d}
        if selection is not None:
            extra["dimension_selection"] = selection
        return recorder.finalize(
            total_seconds=timer.elapsed,
            eval_seconds=broker.stats.eval_seconds,
            Z=Z,
            extra=extra,
        )



def _default_candidates(D: int) -> list[int]:
    """A coarse dimension ladder so Algorithm 2 stays cheap for large D."""
    if D <= 12:
        return list(range(1, D + 1))
    ladder = sorted({1, 2, 4, 6, 8, 12, 16, 20, 25, 30, 40, 50, D})
    return [d for d in ladder if d <= D]
