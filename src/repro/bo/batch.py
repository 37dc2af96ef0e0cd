"""Batch BO with the parallelizable multi-weight acquisition (pBO, [5]).

Per batch: fit the GP once, then optimize the weighted acquisition of Eq. 9
for each preset weight ``w_1 … w_{n_b}``, yielding ``n_b`` new simulation
points spanning exploitation (``w≈0``) through exploration (``w≈1``).  This
is the paper's "pBO" baseline when run in the full ``D``-dimensional space,
and the inner engine of the proposed method when run in an embedded space.

With the DIRECT-L + COBYLA stack, :func:`~repro.bo.propose.propose_batch`
drives all ``n_b`` searches in lockstep: each generation's candidate union
is scored by ONE shared GP posterior evaluation and reweighted per weight
(:class:`~repro.acquisition.functions.MultiWeightAcquisition`), in both the
global and the local refinement phase.
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
from repro.runtime.broker import RuntimePolicy, make_broker
from repro.runtime.objective import Objective, require_objective
from repro.telemetry.config import TelemetryLike, resolve_telemetry
from repro.utils.rng import SeedLike, as_generator, spawn
from repro.utils.timing import Timer
from repro.utils.validation import as_matrix, as_vector

#: Engine default when ``RunSpec.n_batches`` is None.
DEFAULT_N_BATCHES = 5


class BatchBO:
    """Full-dimensional pBO (the paper's strongest non-embedded baseline).

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
        Terminate at the end of the first batch containing a failure.
    """

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
        """Run ``spec.n_batches`` batches of ``batch_size`` simulations each."""
        objective = require_objective(objective, type(self).__name__)
        spec = spec if spec is not None else RunSpec()
        tele = resolve_telemetry(telemetry)
        tracer = tele.tracer
        lower, upper, box = resolve_bounds(objective, spec.bounds)
        dim = lower.shape[0]
        base_rng = as_generator(rng) if rng is not None else self._rng
        rng_init, rng_model = spawn(base_rng, 2)
        n_batches = (
            spec.n_batches if spec.n_batches is not None else DEFAULT_N_BATCHES
        )
        threshold = spec.threshold

        recorder = RunRecorder(method="pBO", model_dim=dim)
        broker = make_broker(
            objective, policy, recorder=recorder, method="pBO", telemetry=tele
        )

        timer = Timer().start()
        if spec.initial_data is not None:
            X = as_matrix(spec.initial_data[0], dim).copy()
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

        manager = SurrogateManager(
            dim,
            kernel_factory=self.kernel_factory,
            noise_variance=self.noise_variance,
            tune_every=self.tune_every,
            n_restarts=self.n_restarts,
            seed=rng_model,
            surrogate=(
                spec.surrogate if spec.surrogate is not None else self.surrogate
            ),
        )

        for iteration in range(n_batches):
            with tracer.span("iteration", index=iteration) as it_span:
                with tracer.span("gp_fit", n_train=int(y.size)) as fit_span:
                    gp = manager.refit(X, y)
                    annotate_gp_fit(fit_span, manager)
                with tracer.span("acq_opt") as acq_span:
                    proposal = propose_batch(
                        gp,
                        self.weights,
                        box,
                        optimizer_factory=self.acquisition_optimizer_factory,
                    )
                    acq_span.set("fevals", proposal.n_evaluations)
                recorder.add_acquisition(proposal.n_evaluations)
                new_X = np.clip(proposal.X, lower, upper)
                batch = broker.evaluate_batch(new_X)
                it_span.set("n_evaluated", batch.n_evaluated)
            if batch.n_evaluated:
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

        return recorder.finalize(
            total_seconds=timer.elapsed,
            eval_seconds=broker.stats.eval_seconds,
        )

