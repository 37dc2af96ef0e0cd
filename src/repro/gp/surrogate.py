"""The surrogate-model layer: protocol, spec, and factory.

Every BO engine consumes its model through the :class:`SurrogateModel`
protocol — the exact :class:`~repro.gp.model.GaussianProcess` (O(n³) fit,
O(n²) memory) and the inducing-point
:class:`~repro.gp.sparse.SparseGaussianProcess` (O(nm²) fit, O(m²)
predict) are interchangeable behind it.  Which one a run uses is a
*declarative* choice carried by :class:`SurrogateSpec` — a kind and an
inducing budget ``m`` — set only through ``RunSpec.surrogate`` (a job
file's top-level ``surrogate`` key fills that field) and materialized
once per run, by :func:`make_surrogate`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from numbers import Integral
from typing import Protocol, Union, runtime_checkable

import numpy as np

from repro._typing import ArrayLike, FloatArray
from repro.gp.model import GaussianProcess, GPPrediction
from repro.kernels.stationary import Matern52

#: Surrogate kinds :func:`make_surrogate` can build.
SURROGATE_KINDS = ("exact", "sparse")

#: Default inducing-point count for the sparse surrogate.
DEFAULT_INDUCING = 256


@runtime_checkable
class SurrogateModel(Protocol):
    """What every GP-like surrogate exposes to the engines.

    Exactly what campaigns call: conditioning (:meth:`fit` /
    :meth:`add_data` / :meth:`set_labels`), the posterior mean and
    variance (:meth:`predict`), the evidence, and the flat
    log-hyperparameter vector ``theta`` with its box bounds.
    Implementations other than the exact GP must also offer a
    side-effect-free ``evaluate_theta(theta) -> (lml, grad)``:
    :func:`~repro.gp.hyperopt.fit_hyperparameters` scores trial points
    through it and raises ``TypeError`` without it.
    """

    # -- conditioning -------------------------------------------------------

    def fit(self, X: ArrayLike, y: ArrayLike) -> "SurrogateModel": ...

    def add_data(self, X: ArrayLike, y: ArrayLike) -> "SurrogateModel": ...

    def set_labels(self, y: ArrayLike) -> "SurrogateModel": ...

    # -- posterior ----------------------------------------------------------

    def predict(self, X: ArrayLike) -> GPPrediction: ...

    # -- evidence -----------------------------------------------------------

    def log_marginal_likelihood(self) -> float: ...

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
        ``"exact"`` (full-rank GP) or ``"sparse"`` (inducing-point GP).
    m:
        Inducing-point budget of the sparse surrogate, an integer >= 1.
        Clamped to ``n`` at fit time — with ``m >= n`` the sparse model
        is algebraically the exact GP.  The exact GP ignores it.
    """

    kind: str = "exact"
    m: int = DEFAULT_INDUCING

    def __post_init__(self) -> None:
        if self.kind not in SURROGATE_KINDS:
            raise ValueError(
                f"unknown surrogate kind {self.kind!r}; "
                f"allowed kinds: {', '.join(SURROGATE_KINDS)}"
            )
        # bool is an Integral; a float m would silently truncate
        if (
            not isinstance(self.m, Integral)
            or isinstance(self.m, bool)
            or self.m < 1
        ):
            raise ValueError(f"m must be an integer >= 1, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))


#: Anything a ``surrogate=`` argument accepts: a spec, a kind string, a
#: mapping of :class:`SurrogateSpec` fields, or None (the exact GP).
SurrogateLike = Union["SurrogateSpec", str, Mapping, None]

_SPEC_FIELDS = tuple(f.name for f in fields(SurrogateSpec))


def coerce_surrogate_spec(value: SurrogateLike) -> SurrogateSpec:
    """Normalize a ``surrogate=`` argument into a validated spec.

    None is the exact GP; strings name a kind (``"sparse"``); mappings
    supply :class:`SurrogateSpec` fields (``{"kind": "sparse", "m": 256}``).
    Unknown kinds and unknown keys raise ``ValueError`` naming the allowed
    values.
    """
    if value is None:
        return SurrogateSpec()
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
    ard: bool = True,
    noise_variance: float = 1e-4,
) -> SurrogateModel:
    """Materialize one surrogate model from a declarative spec.

    This is the single construction path the engines use — direct
    ``GaussianProcess(...)`` calls remain supported for library users, but
    everything reachable from ``RunSpec`` and job files goes through here.

    Parameters
    ----------
    spec:
        A :class:`SurrogateSpec`, kind string, field mapping, or None
        (exact GP).
    dim:
        Input dimensionality the kernel is built for.
    ard:
        One Matérn-5/2 lengthscale per input dimension (the default), or
        one shared lengthscale.
    noise_variance:
        Observation noise.
    """
    resolved = coerce_surrogate_spec(spec)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    kernel = Matern52(dim=dim, ard=ard)
    if resolved.kind == "exact":
        return GaussianProcess(kernel, noise_variance=noise_variance)
    from repro.gp.sparse import SparseGaussianProcess

    return SparseGaussianProcess(
        kernel, noise_variance=noise_variance, m=resolved.m
    )


__all__ = [
    "DEFAULT_INDUCING",
    "SURROGATE_KINDS",
    "SurrogateLike",
    "SurrogateModel",
    "SurrogateSpec",
    "coerce_surrogate_spec",
    "make_surrogate",
]
