"""Per-dataset kernel workspaces and the scaled pairwise distance helper.

Marginal-likelihood fitting evaluates the Gram matrix and its gradients
hundreds of times at different hyperparameters over the *same* training
inputs, so the kernel caches input-dependent structure in a
:class:`KernelWorkspace` once and rescales it per evaluation instead of
rebuilding it from ``X``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro._typing import ArrayLike, FloatArray
from repro.utils.contracts import shape_contract
from repro.utils.validation import as_matrix


class KernelWorkspace:
    """Per-dataset cache of input-dependent kernel structure.

    The workspace is opaque to callers: it stores the training inputs plus a
    ``cache`` dict that the kernel fills lazily with the tensors it derives
    from them (scaled squared distances, correlation buffers, scaled inputs
    for cross-covariances).  Each entry is keyed by the lengthscales it was
    computed at, so one workspace serves every theta evaluated during a
    hyperparameter fit.
    """

    __slots__ = ("X", "cache")

    def __init__(self, X: ArrayLike) -> None:
        self.X: FloatArray = as_matrix(X)
        self.cache: dict[str, Any] = {}

    @property
    def n(self) -> int:
        return self.X.shape[0]


@shape_contract("X: a(n, d), Z: a(m, d), lengthscales: (*,) -> (n, m)")
def pairwise_sq_dists(
    X: ArrayLike, Z: ArrayLike, lengthscales: FloatArray
) -> FloatArray:
    """Squared Euclidean distances between scaled rows of ``X`` and ``Z``.

    ``lengthscales`` may be a scalar array of shape ``(1,)`` (isotropic) or
    per-dimension of shape ``(dim,)`` (ARD).  Distances are clipped at zero
    to guard against negative round-off.
    """
    Xs = as_matrix(X) / lengthscales
    Zs = as_matrix(Z) / lengthscales
    sq = Xs @ Zs.T
    sq *= -2.0
    sq += np.einsum("ij,ij->i", Xs, Xs)[:, None]
    sq += np.einsum("ij,ij->i", Zs, Zs)[None, :]
    return np.maximum(sq, 0.0, out=sq)
