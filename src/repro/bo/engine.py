"""The one campaign loop every BO engine runs, and its shared plumbing.

A campaign has one shape: an initial design, then iterations of
``gp_fit → acq_opt → evaluate`` until the run's iteration count is spent
(paper Algorithm 1, lines 5-15).  :class:`BOEngine` runs that loop once,
for all three engines; they differ only in their method label and RNG
stream layout, in how many iterations a :class:`RunSpec` buys, in their
proposal step (single acquisition, multi-weight batch), and — for REMBO —
in the :class:`ModelSpace` the surrogate works in.  A run always spends
its whole iteration count, and its log stacks every row it submitted to
the broker with the value the broker returned.  Surrogate fitting, label
standardization and the hyperparameter tuning cadence
(:class:`SurrogateManager`) live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.bo.propose import BatchProposal, check_budgets
from repro.bo.records import RunResult
from repro.gp.hyperopt import HyperoptResult, fit_hyperparameters
from repro.gp.standardize import Standardizer
from repro.gp.surrogate import (
    SurrogateLike,
    SurrogateModel,
    coerce_surrogate_spec,
    make_surrogate,
)
from repro.runtime.broker import RuntimePolicy, make_broker
from repro.runtime.objective import Objective, require_objective, resolve_bounds
from repro.telemetry.config import Telemetry, resolve_telemetry
from repro.utils.contracts import shape_contract
from repro.utils.rng import SeedLike, as_generator, spawn
from repro.utils.timing import Timer
from repro.utils.validation import as_matrix, as_vector, check_bounds


@dataclass(frozen=True)
class RunSpec:
    """What one engine run should do, independent of how it is wired.

    The spec carries the *problem-shaped* arguments every engine shares —
    bounds, initial design, evaluation budget, failure threshold — while
    runtime wiring (cache, ledger, retries) travels separately as a
    :class:`~repro.runtime.broker.RuntimePolicy` and observability as a
    live :class:`~repro.telemetry.Telemetry`.

    Parameters
    ----------
    bounds:
        Search box; may be None for an :class:`Objective` that declares
        its own.
    n_init:
        Initial-design size (ignored when ``initial_data`` is given).
    budget:
        Total evaluation budget, initial design included, of
        :class:`~repro.bo.loop.SequentialBO`; None applies its default.
        The batch engines reject a spec that sets it.
    n_batches:
        Batch count of :class:`~repro.bo.batch.BatchBO` and
        :class:`~repro.bo.rembo.RemboBO`; None applies their default.
        :class:`~repro.bo.loop.SequentialBO` rejects a spec that sets it.
    threshold:
        Failure threshold ``T`` (minimization orientation: ``y < T``).
    initial_data:
        Precomputed ``(X0, y0)`` shared across methods, as in the paper.
    surrogate:
        Which surrogate model the run uses — the one place a campaign
        chooses it: a :class:`~repro.gp.surrogate.SurrogateSpec`, a kind
        string (``"exact"`` / ``"sparse"``), or a mapping of spec fields
        (``{"kind": "sparse", "m": 256}``).  Normalized to a
        ``SurrogateSpec`` at construction (``None`` is the exact GP), so
        an invalid kind or key fails here with an error naming the
        allowed ones.
    """

    bounds: object | None = None
    n_init: int = 5
    budget: int | None = None
    n_batches: int | None = None
    threshold: float | None = None
    initial_data: tuple[np.ndarray, np.ndarray] | None = None
    surrogate: SurrogateLike = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        if self.n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {self.n_init}")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.n_batches is not None and self.n_batches < 0:
            raise ValueError(f"n_batches must be >= 0, got {self.n_batches}")
        object.__setattr__(
            self, "surrogate", coerce_surrogate_spec(self.surrogate)
        )


@runtime_checkable
class EngineProtocol(Protocol):
    """The one entry point every BO engine and sampler exposes.

    Implementations: :class:`~repro.bo.loop.SequentialBO`,
    :class:`~repro.bo.batch.BatchBO`, :class:`~repro.bo.rembo.RemboBO`
    (all three through :meth:`BOEngine.solve`) and, duck-typed, the
    sampling baselines.  ``solve`` is the only way to run an engine.
    """

    def solve(
        self,
        *,
        objective: Objective,
        spec: "RunSpec | None" = None,
        policy: "RuntimePolicy | None" = None,
        telemetry: Telemetry | None = None,
        rng: SeedLike = None,
    ) -> "RunResult": ...


def annotate_gp_fit(span, manager: "SurrogateManager") -> None:
    """Attach the surrogate refit's hyperopt outcome to a ``gp_fit`` span.

    No-op attributes on the null span when telemetry is off; when the
    refit skipped tuning (``tune_every`` cadence) only ``tuned=False`` is
    recorded.
    """
    span.set("tuned", manager.last_refit_tuned)
    span.set("surrogate", manager.surrogate_spec.kind)
    n_inducing = getattr(manager.model, "n_inducing", None)
    if n_inducing is not None:
        span.set("n_inducing", int(n_inducing))
    if manager.last_refit_tuned and manager.last_hyperopt is not None:
        hyper = manager.last_hyperopt
        span.set("lml", float(hyper.log_marginal_likelihood))
        span.set("restarts", int(hyper.n_restarts))
        span.set("fevals", int(hyper.n_evaluations))


@shape_contract("bounds: a(d, 2), n_init: n -> (n, d)")
def uniform_initial_design(
    bounds, n_init: int, seed: SeedLike = None
) -> np.ndarray:
    """Uniform initial samples in a box (the paper's initial dataset D_0)."""
    lower, upper = check_bounds(bounds)
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    rng = as_generator(seed)
    return rng.uniform(lower, upper, size=(n_init, lower.shape[0]))


class SurrogateManager:
    """Owns the surrogate model: standardization, refits, tuning cadence.

    Parameters
    ----------
    dim:
        Dimensionality the surrogate operates in (D for plain BO, d for
        REMBO).
    ard / noise_variance:
        Surrogate construction knobs: a Matérn-5/2 kernel with one
        lengthscale per input (``ard=True``) or one shared lengthscale,
        see :func:`~repro.gp.surrogate.make_surrogate`.
    tune_every:
        Re-optimize hyperparameters every ``tune_every`` refits (1 = always).
    n_restarts:
        Multi-start count for each hyperparameter fit.
    surrogate:
        Which surrogate to build (spec / kind string / field mapping, see
        :func:`~repro.gp.surrogate.make_surrogate`); the run's
        ``RunSpec.surrogate``.  The model is built once, here.
    """

    def __init__(
        self,
        dim: int,
        ard: bool = True,
        noise_variance: float = 1e-4,
        tune_every: int = 1,
        n_restarts: int = 2,
        seed: SeedLike = None,
        surrogate: SurrogateLike = None,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if tune_every < 1:
            raise ValueError(f"tune_every must be >= 1, got {tune_every}")
        self.dim = int(dim)
        self.tune_every = int(tune_every)
        self.n_restarts = int(n_restarts)
        self._rng = as_generator(seed)
        self.standardizer = Standardizer()
        self.surrogate_spec = coerce_surrogate_spec(surrogate)
        self.model: SurrogateModel = make_surrogate(
            self.surrogate_spec, self.dim, ard=ard, noise_variance=noise_variance
        )
        self._refit_count = 0
        #: Result of the most recent hyperparameter search (telemetry reads
        #: this to attribute LML/restart/feval counts to the gp_fit span).
        self.last_hyperopt: HyperoptResult | None = None
        #: Whether the most recent :meth:`refit` ran a hyperparameter search.
        self.last_refit_tuned = False

    def refit(self, X, y) -> SurrogateModel:
        """(Re)train the surrogate on the full dataset in model space.

        When ``X`` extends the previously fitted inputs (the BO engines
        always append), the new rows enter through the model's incremental
        update and only the labels — re-standardized over the grown
        dataset — are resolved against the existing factorization;
        otherwise the surrogate is refit from scratch.  Scheduled
        hyperparameter tuning always ends in an exact refit at the winning
        theta.
        """
        X = as_matrix(X, self.dim)
        y = as_vector(y, X.shape[0])
        y_std = self.standardizer.fit_transform(y)
        model = self.model
        n_prev = model.n_train
        if (
            model.is_fitted
            and X.shape[0] >= n_prev
            and np.array_equal(X[:n_prev], model.X_train)
        ):
            if X.shape[0] > n_prev:
                model.add_data(X[n_prev:], y_std[n_prev:])
            model.set_labels(y_std)
        else:
            model.fit(X, y_std)
        if self._refit_count % self.tune_every == 0:
            self.last_hyperopt = fit_hyperparameters(
                model, n_restarts=self.n_restarts, seed=self._rng
            )
            self.last_refit_tuned = True
        else:
            self.last_refit_tuned = False
        self._refit_count += 1
        return model


class ModelSpace:
    """Where the surrogate is fitted and the acquisition is searched.

    This base is the design box itself: model inputs are design points,
    and a proposal is simulated as it stands.  REMBO's embedded space maps
    proposals through ``x = p_Ω(A z)`` and adds its inputs ``Z`` and its
    embedding to the result.
    """

    def __init__(self, box: np.ndarray) -> None:
        self.box = box

    def to_design(self, Z: np.ndarray, span: Any) -> np.ndarray:
        """The design points to simulate for the proposals ``Z``."""
        return Z

    def result_fields(self, Z: np.ndarray) -> dict[str, Any]:
        """Extra :class:`RunResult` fields; ``Z`` holds every model input."""
        return {}


class BOEngine:
    """The campaign loop shared by :class:`~repro.bo.loop.SequentialBO`,
    :class:`~repro.bo.batch.BatchBO` and :class:`~repro.bo.rembo.RemboBO`.

    Subclasses keep explicit constructor signatures (the job loader reads
    them) and supply only what differs: the method label, the RNG stream
    count, :meth:`_n_iterations`, :meth:`_propose` and, for REMBO,
    :meth:`_model_space`.
    """

    #: Method label of the run record and the ledger's campaign header.
    _method = ""
    #: RNG streams per run: the initial design's first, the surrogate's
    #: last, the model space's in between.
    _n_streams = 2

    def __init__(
        self,
        ard: bool,
        noise_variance: float,
        tune_every: int,
        n_restarts: int,
        global_budget: int,
        local_budget: int,
        seed: SeedLike,
    ) -> None:
        self.ard = bool(ard)
        self.noise_variance = float(noise_variance)
        self.tune_every = int(tune_every)
        self.n_restarts = int(n_restarts)
        self.global_budget, self.local_budget = check_budgets(
            global_budget, local_budget
        )
        self._rng = as_generator(seed)

    def _n_iterations(self, spec: RunSpec, n_init: int) -> int:
        """Iterations ``spec`` buys after ``n_init`` initial points; a
        ``ValueError`` for a spec field the engine does not read."""
        raise NotImplementedError

    def _propose(self, model: SurrogateModel, box: np.ndarray) -> BatchProposal:
        """One iteration's proposals in the model space ``box``."""
        raise NotImplementedError

    def _model_space(
        self, X: np.ndarray, y: np.ndarray, box: np.ndarray, rngs: list, tracer: Any
    ) -> tuple[ModelSpace, np.ndarray]:
        """The model space built from the initial data, and its inputs."""
        return ModelSpace(box), X

    def solve(
        self,
        *,
        objective: Objective,
        spec: RunSpec | None = None,
        policy: RuntimePolicy | None = None,
        telemetry: Telemetry | None = None,
        rng: SeedLike = None,
    ) -> RunResult:
        """Run the initial design, then ``gp_fit → acq_opt → evaluate``
        iterations; returns the full evaluation log.

        ``spec.initial_data`` (``X0, y0``) reuses precomputed simulations,
        as the paper shares one initial dataset across all BO methods;
        ``spec.n_init`` is then ignored.  Every simulation routes through
        the broker (``policy`` supplies the shared cache, ledger and retry
        settings); a point whose retries ran out raises
        :class:`~repro.runtime.broker.EvaluationError`.  ``telemetry``, a
        live :class:`Telemetry` or None, receives ``init_design`` /
        ``iteration`` / ``gp_fit`` / ``acq_opt`` / ``evaluate`` spans and
        broker metrics.
        ``rng`` overrides the constructor seed for this run.
        """
        objective = require_objective(objective, type(self).__name__)
        spec = spec if spec is not None else RunSpec()
        tele = resolve_telemetry(telemetry)
        tracer = tele.tracer
        _, _, box = resolve_bounds(objective, spec.bounds)
        initial: tuple[np.ndarray, np.ndarray] | None = None
        if spec.initial_data is not None:
            X0 = as_matrix(spec.initial_data[0], box.shape[0]).copy()
            initial = X0, as_vector(spec.initial_data[1], X0.shape[0]).copy()
            if X0.shape[0] == 0:
                raise ValueError(
                    "initial_data holds no evaluations; cannot fit a surrogate"
                )
        # before the broker: a rejected spec writes no ledger header
        n_iterations = self._n_iterations(
            spec, spec.n_init if initial is None else initial[0].shape[0]
        )
        base_rng = as_generator(rng) if rng is not None else self._rng
        rng_init, *rng_space, rng_model = spawn(base_rng, self._n_streams)
        broker = make_broker(objective, policy, method=self._method, telemetry=tele)

        timer = Timer().start()
        if initial is not None:
            X, y = initial
        else:
            with tracer.span("init_design", n_init=spec.n_init) as span:
                X = uniform_initial_design(box, spec.n_init, seed=rng_init)
                y = broker.evaluate_batch(X)
                span.set("n_evaluated", y.size)
        n_init = y.size

        space, Z = self._model_space(X, y, box, rng_space, tracer)
        manager = SurrogateManager(
            space.box.shape[0],
            ard=self.ard,
            noise_variance=self.noise_variance,
            tune_every=self.tune_every,
            n_restarts=self.n_restarts,
            seed=rng_model,
            surrogate=spec.surrogate,
        )

        acquisition_evaluations = 0
        for iteration in range(n_iterations):
            with tracer.span("iteration", index=iteration) as it_span:
                with tracer.span("gp_fit", n_train=int(y.size)) as fit_span:
                    model = manager.refit(Z, y)
                    annotate_gp_fit(fit_span, manager)
                with tracer.span("acq_opt") as acq_span:
                    proposal = self._propose(model, space.box)
                    acq_span.set("fevals", proposal.n_evaluations)
                acquisition_evaluations += proposal.n_evaluations
                new_Z = np.clip(proposal.X, space.box[:, 0], space.box[:, 1])
                new_X = space.to_design(new_Z, it_span)
                new_y = broker.evaluate_batch(new_X)
                it_span.set("n_evaluated", new_y.size)
            X = np.vstack([X, new_X])
            Z = np.vstack([Z, new_Z])
            y = np.concatenate([y, new_y])
        timer.stop()

        eval_seconds = broker.stats.eval_seconds
        return RunResult(
            X=X,
            y=y,
            n_init=n_init,
            method=self._method,
            eval_seconds=eval_seconds,
            overhead_seconds=max(0.0, timer.elapsed - eval_seconds),
            acquisition_evaluations=acquisition_evaluations,
            model_dim=space.box.shape[0],
            **space.result_fields(Z),
        )
