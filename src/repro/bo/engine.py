"""Shared plumbing for the BO engines: surrogate management, initial design.

The engines differ only in how they propose points (single-acquisition
sequential, multi-weight batch, or batch-through-embedding); GP fitting,
label standardization and hyperparameter tuning cadence are identical and
live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

import numpy as np

from repro.gp.hyperopt import HyperoptResult, fit_hyperparameters
from repro.gp.standardize import Standardizer
from repro.gp.surrogate import (
    KernelFactory,
    SurrogateLike,
    SurrogateModel,
    SurrogateSpec,
    coerce_surrogate_spec,
    make_surrogate,
    surrogate_kind_of,
)
from repro.kernels.stationary import Matern52
from repro.optim.base import Optimizer
from repro.runtime.objective import Objective, resolve_bounds  # noqa: F401 — engine-facing re-export
from repro.telemetry.config import TelemetryLike
from repro.utils.contracts import shape_contract
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import as_matrix, as_vector, check_bounds

if TYPE_CHECKING:
    from repro.bo.records import RunResult
    from repro.runtime.broker import RuntimePolicy

OptimizerFactory = Callable[[int], Optimizer]


@dataclass(frozen=True)
class RunSpec:
    """What one engine run should do, independent of how it is wired.

    The spec carries the *problem-shaped* arguments every engine shares —
    bounds, initial design, evaluation budget, failure threshold — while
    runtime wiring (cache/ledger/failure policy) travels separately as a
    :class:`~repro.runtime.broker.RuntimePolicy` and observability as a
    :class:`~repro.telemetry.Telemetry`.

    Parameters
    ----------
    bounds:
        Search box; may be None for an :class:`Objective` that declares
        its own.
    n_init:
        Initial-design size (ignored when ``initial_data`` is given).
    budget:
        Total evaluation budget for sequential engines; None applies the
        engine default.
    n_batches:
        Batch count for batch engines; None applies the engine default.
    threshold:
        Failure threshold ``T`` (minimization orientation: ``y < T``).
    initial_data:
        Precomputed ``(X0, y0)`` shared across methods, as in the paper.
    surrogate:
        Which surrogate model the run should use: a
        :class:`~repro.gp.surrogate.SurrogateSpec`, a kind string
        (``"exact"`` / ``"sparse"`` / ``"auto"``), or a mapping of spec
        fields (``{"kind": "sparse", "m": 256}``).  ``None`` defers to the
        engine's own ``surrogate=`` default.  Normalized to a
        ``SurrogateSpec`` at construction, so invalid kinds fail here with
        an error naming the allowed ones.
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
    (and, duck-typed, the sampling baselines).  The legacy positional
    ``run(...)`` methods remain as deprecated wrappers over ``solve``.
    """

    def solve(
        self,
        *,
        objective: Objective,
        spec: "RunSpec | None" = None,
        policy: "RuntimePolicy | None" = None,
        telemetry: TelemetryLike = None,
        rng: SeedLike = None,
    ) -> "RunResult": ...


def default_kernel_factory(dim: int):
    """Matérn-5/2 with ARD, the usual BO default (paper cites both SE and Matérn)."""
    return Matern52(dim=dim, ard=True)


def annotate_gp_fit(span, manager: "SurrogateManager") -> None:
    """Attach the surrogate refit's hyperopt outcome to a ``gp_fit`` span.

    No-op attributes on the null span when telemetry is off; when the
    refit skipped tuning (``tune_every`` cadence) only ``tuned=False`` is
    recorded.
    """
    span.set("tuned", manager.last_refit_tuned)
    model = manager.model
    if model is not None:
        span.set("surrogate", surrogate_kind_of(model))
        n_inducing = getattr(model, "n_inducing", None)
        if n_inducing is not None:
            span.set("n_inducing", int(n_inducing))
    if manager.last_refit_tuned and manager.last_hyperopt is not None:
        hyper = manager.last_hyperopt
        span.set("lml", float(hyper.log_marginal_likelihood))
        span.set("restarts", int(hyper.n_restarts))
        span.set("fevals", int(hyper.n_evaluations))




@shape_contract("bounds: a(d, 2) | a(2, d), n_init: n -> (n, d)")
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
    kernel_factory / noise_variance:
        Surrogate construction knobs.
    tune_every:
        Re-optimize hyperparameters every ``tune_every`` refits (1 = always).
    n_restarts:
        Multi-start count for each hyperparameter fit.
    surrogate:
        Which surrogate to build (spec / kind string / field mapping, see
        :func:`~repro.gp.surrogate.make_surrogate`).  ``"auto"`` starts
        exact and rebuilds as sparse once the dataset crosses the spec's
        ``switch_at`` threshold; tuned hyperparameters carry across the
        switch.
    """

    def __init__(
        self,
        dim: int,
        kernel_factory: KernelFactory | None = None,
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
        self._kernel_factory = kernel_factory or default_kernel_factory
        self._noise_variance = float(noise_variance)
        self.tune_every = int(tune_every)
        self.n_restarts = int(n_restarts)
        self._rng = as_generator(seed)
        self.standardizer = Standardizer()
        self.surrogate_spec: SurrogateSpec = (
            coerce_surrogate_spec(surrogate) or SurrogateSpec()
        )
        self.model: SurrogateModel | None = None
        self._refit_count = 0
        #: Result of the most recent hyperparameter search (telemetry reads
        #: this to attribute LML/restart/feval counts to the gp_fit span).
        self.last_hyperopt: HyperoptResult | None = None
        #: Whether the most recent :meth:`refit` ran a hyperparameter search.
        self.last_refit_tuned = False

    def _ensure_model(self, n: int) -> SurrogateModel:
        """The surrogate for an ``n``-point fit, rebuilt on a kind switch.

        ``kind="auto"`` resolves against ``n`` on every refit; crossing the
        ``switch_at`` threshold swaps the exact model for a sparse one (the
        spec never switches back — ``n`` only grows along a run).  Tuned
        hyperparameters transplant onto the replacement so the switch does
        not discard the hyperopt state accumulated so far.
        """
        kind = self.surrogate_spec.resolve_kind(n)
        model = self.model
        if model is not None and surrogate_kind_of(model) == kind:
            return model
        replacement = make_surrogate(
            self.surrogate_spec,
            self.dim,
            kernel_factory=self._kernel_factory,
            noise_variance=self._noise_variance,
            n=n,
        )
        if model is not None:
            replacement.theta = model.theta
        self.model = replacement
        return replacement

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
        model = self._ensure_model(X.shape[0])
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
