"""The pluggable surrogate-model layer: protocol, spec, and factory.

Every BO engine consumes its model through the :class:`SurrogateModel`
protocol — the exact :class:`~repro.gp.model.GaussianProcess` (O(n³) fit,
O(n²) memory) and the inducing-point
:class:`~repro.gp.sparse.SparseGaussianProcess` (O(nm²) fit, O(m²)
predict) are interchangeable behind it.  Which one a run uses is a
*declarative* choice carried by :class:`SurrogateSpec`, which travels
through ``RunSpec`` / ``CampaignSpec`` / the serve job schema and is
materialized exactly once, by :func:`make_surrogate`.

``kind="auto"`` defers the choice to data volume: the manager builds the
exact GP while ``n < switch_at`` and switches to the sparse path at the
threshold, which is what lets long-horizon campaigns outgrow the exact
Cholesky without a config change.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Protocol, Union, runtime_checkable

import numpy as np

from repro._typing import ArrayLike, FloatArray
from repro.gp.model import GaussianProcess, GPPrediction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.base import Kernel

KernelFactory = Callable[[int], "Kernel"]

#: Surrogate kinds :func:`make_surrogate` can build.
SURROGATE_KINDS = ("exact", "sparse", "auto")

#: Default inducing-point count for the sparse surrogate.
DEFAULT_INDUCING = 256

#: Default ``n`` at which ``kind="auto"`` switches exact → sparse.
DEFAULT_SWITCH_AT = 1024


@runtime_checkable
class SurrogateModel(Protocol):
    """What every GP-like surrogate exposes to the engines.

    The protocol is extracted from the historical ``GaussianProcess``
    surface: conditioning (:meth:`fit` / :meth:`add_data` /
    :meth:`set_labels`), posterior queries (:meth:`predict` /
    :meth:`predict_cov` / :meth:`sample_posterior`), the evidence and its
    gradient for hyperparameter fitting, and the flat log-hyperparameter
    vector ``theta`` with its box bounds.  Implementations other than the
    exact GP must also offer a side-effect-free
    ``evaluate_theta(theta) -> (lml, grad)``:
    :func:`~repro.gp.hyperopt.fit_hyperparameters` scores trial points
    through it and raises ``TypeError`` without it.
    """

    # -- conditioning -------------------------------------------------------

    def fit(self, X: ArrayLike, y: ArrayLike) -> "SurrogateModel": ...

    def add_data(self, X: ArrayLike, y: ArrayLike) -> "SurrogateModel": ...

    def set_labels(self, y: ArrayLike) -> "SurrogateModel": ...

    # -- posterior ----------------------------------------------------------

    def predict(self, X: ArrayLike) -> GPPrediction: ...

    def predict_cov(self, X: ArrayLike) -> tuple[FloatArray, FloatArray]: ...

    def sample_posterior(
        self, X: ArrayLike, n_samples: int, rng: np.random.Generator
    ) -> FloatArray: ...

    # -- evidence -----------------------------------------------------------

    def log_marginal_likelihood(self) -> float: ...

    def log_marginal_likelihood_gradient(self) -> FloatArray: ...

    def log_marginal_likelihood_value_and_gradient(
        self,
    ) -> tuple[float, FloatArray]: ...

    # -- hyperparameters ----------------------------------------------------

    @property
    def theta(self) -> FloatArray: ...

    @theta.setter
    def theta(self, value: np.ndarray) -> None: ...

    def theta_bounds(self) -> FloatArray: ...

    # -- state --------------------------------------------------------------

    @property
    def is_fitted(self) -> bool: ...

    @property
    def n_train(self) -> int: ...

    @property
    def X_train(self) -> FloatArray: ...

    @property
    def y_train(self) -> FloatArray: ...


@dataclass(frozen=True)
class SurrogateSpec:
    """Declarative description of which surrogate a run should use.

    Parameters
    ----------
    kind:
        ``"exact"`` (full-rank GP), ``"sparse"`` (inducing-point GP), or
        ``"auto"`` (exact below ``switch_at`` training points, sparse at
        or above it).
    m:
        Inducing-point budget for the sparse surrogate; ``None`` means
        :data:`DEFAULT_INDUCING`.  Clamped to ``n`` at fit time — with
        ``m >= n`` the sparse model is algebraically the exact GP.
    switch_at:
        The ``n`` threshold of ``kind="auto"``.
    noise_variance:
        Overrides the caller-side default observation noise when given.
    reselect_coverage:
        Kernel-correlation floor under which a training point counts as
        uncovered by the current inducing set.
    reselect_fraction:
        Fraction of uncovered training points that triggers inducing-point
        re-selection on :meth:`SparseGaussianProcess.add_data`.
    kmeans_iters:
        Lloyd refinement iterations for inducing-point selection.
    """

    kind: str = "exact"
    m: int | None = None
    switch_at: int = DEFAULT_SWITCH_AT
    noise_variance: float | None = None
    reselect_coverage: float = 0.25
    reselect_fraction: float = 0.10
    kmeans_iters: int = 10

    def __post_init__(self) -> None:
        if self.kind not in SURROGATE_KINDS:
            raise ValueError(
                f"unknown surrogate kind {self.kind!r}; "
                f"allowed kinds: {', '.join(SURROGATE_KINDS)}"
            )
        if self.m is not None and self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.switch_at < 1:
            raise ValueError(f"switch_at must be >= 1, got {self.switch_at}")
        if self.noise_variance is not None and self.noise_variance <= 0:
            raise ValueError(
                f"noise_variance must be positive, got {self.noise_variance}"
            )
        if not 0.0 <= self.reselect_coverage <= 1.0:
            raise ValueError(
                f"reselect_coverage must lie in [0, 1], got {self.reselect_coverage}"
            )
        if not 0.0 < self.reselect_fraction <= 1.0:
            raise ValueError(
                f"reselect_fraction must lie in (0, 1], got {self.reselect_fraction}"
            )
        if self.kmeans_iters < 0:
            raise ValueError(
                f"kmeans_iters must be >= 0, got {self.kmeans_iters}"
            )

    def resolve_kind(self, n: int) -> str:
        """The concrete kind ("exact" or "sparse") for an ``n``-point fit."""
        if self.kind == "auto":
            return "sparse" if n >= self.switch_at else "exact"
        return self.kind


#: Anything a ``surrogate=`` argument accepts: a spec, a kind string, a
#: mapping of :class:`SurrogateSpec` fields, or None (caller default).
SurrogateLike = Union["SurrogateSpec", str, Mapping, None]

_SPEC_FIELDS = tuple(f.name for f in fields(SurrogateSpec))


def coerce_surrogate_spec(value: SurrogateLike) -> SurrogateSpec | None:
    """Normalize a ``surrogate=`` argument into a validated spec (or None).

    Strings name a kind (``"sparse"``); mappings supply
    :class:`SurrogateSpec` fields (``{"kind": "sparse", "m": 256}``).
    Unknown kinds and unknown keys raise ``ValueError`` naming the allowed
    values.
    """
    if value is None:
        return None
    if isinstance(value, SurrogateSpec):
        return value
    if isinstance(value, str):
        return SurrogateSpec(kind=value)
    if isinstance(value, Mapping):
        unknown = set(value) - set(_SPEC_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown surrogate keys: {sorted(unknown)}; "
                f"allowed keys: {', '.join(_SPEC_FIELDS)}"
            )
        return SurrogateSpec(**dict(value))
    raise TypeError(
        f"surrogate must be a SurrogateSpec, a kind string "
        f"({', '.join(SURROGATE_KINDS)}), a mapping of spec fields, or None; "
        f"got {type(value).__name__}"
    )


def make_surrogate(
    spec: SurrogateLike,
    dim: int,
    *,
    kernel_factory: "KernelFactory | None" = None,
    noise_variance: float = 1e-4,
    n: int | None = None,
) -> SurrogateModel:
    """Materialize one surrogate model from a declarative spec.

    This is the single construction path the engines use — direct
    ``GaussianProcess(...)`` calls remain supported for library users, but
    everything reachable from ``RunSpec``/``CampaignSpec``/job files goes
    through here so new surrogate kinds are one registry entry away.

    Parameters
    ----------
    spec:
        A :class:`SurrogateSpec`, kind string, field mapping, or None
        (exact GP with library defaults).
    dim:
        Input dimensionality the kernel is built for.
    kernel_factory:
        ``dim -> Kernel``; defaults to Matérn-5/2 with ARD.
    noise_variance:
        Observation noise, unless the spec overrides it.
    n:
        Current training-set size, used to resolve ``kind="auto"``
        (``None`` counts as 0, i.e. exact).
    """
    resolved = coerce_surrogate_spec(spec) or SurrogateSpec()
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    kind = resolved.resolve_kind(0 if n is None else int(n))
    factory = kernel_factory if kernel_factory is not None else _default_kernel
    kernel = factory(dim)
    noise = (
        resolved.noise_variance
        if resolved.noise_variance is not None
        else noise_variance
    )
    if kind == "exact":
        return GaussianProcess(kernel, noise_variance=noise)
    from repro.gp.sparse import SparseGaussianProcess

    return SparseGaussianProcess(
        kernel,
        noise_variance=noise,
        m=resolved.m if resolved.m is not None else DEFAULT_INDUCING,
        reselect_coverage=resolved.reselect_coverage,
        reselect_fraction=resolved.reselect_fraction,
        kmeans_iters=resolved.kmeans_iters,
    )


def surrogate_kind_of(model: SurrogateModel) -> str:
    """The spec-level kind string a live model corresponds to."""
    from repro.gp.sparse import SparseGaussianProcess

    return "sparse" if isinstance(model, SparseGaussianProcess) else "exact"


def _default_kernel(dim: int) -> "Kernel":
    from repro.kernels.stationary import Matern52

    return Matern52(dim=dim, ard=True)


__all__ = [
    "DEFAULT_INDUCING",
    "DEFAULT_SWITCH_AT",
    "SURROGATE_KINDS",
    "SurrogateLike",
    "SurrogateModel",
    "SurrogateSpec",
    "coerce_surrogate_spec",
    "make_surrogate",
    "surrogate_kind_of",
]
