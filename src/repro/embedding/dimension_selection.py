"""Embedding-dimension selection (paper Algorithm 2, Section 4.3).

A small dataset sampled in the *original* space is reused across all
candidate embedding dimensions: for each ``d``, ``n_trials`` random matrices
are drawn, the inputs are mapped down via the pseudo-inverse (Eq. 12), a GP
is trained on the mapped data, and its MSE is recorded.  The averaged MSE
as a function of ``d`` decreases until ``d`` reaches the (unknown)
effective dimension ``d_e`` and then flattens; the selector picks the
smallest ``d`` on the flat part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._typing import ArrayLike, FloatArray, IntArray
from repro.embedding.random_embedding import RandomEmbedding
from repro.utils.contracts import shape_contract
from repro.gp.hyperopt import fit_hyperparameters
from repro.gp.model import GaussianProcess
from repro.gp.standardize import Standardizer
from repro.kernels.stationary import Matern52
from repro.utils.rng import SeedLike, as_generator, spawn
from repro.utils.validation import as_matrix, as_vector


@dataclass
class DimensionSelectionResult:
    """Outcome of Algorithm 2.

    Attributes
    ----------
    selected_dim:
        The chosen embedding dimension ``d̃``.
    dims:
        Candidate dimensions evaluated.
    mse:
        Averaged MSE per candidate dimension (same order as ``dims``).
    normalized_mse:
        ``mse`` min-max normalized to [0, 1] (the paper's Fig. 6 scaling).
    n_trials:
        Random matrices averaged per dimension.
    """

    selected_dim: int
    dims: IntArray
    mse: FloatArray
    normalized_mse: FloatArray
    n_trials: int


def _normalize(mse: FloatArray) -> FloatArray:
    lo, hi = float(np.min(mse)), float(np.max(mse))
    if hi - lo < 1e-300:
        return np.zeros_like(mse)
    return (mse - lo) / (hi - lo)


@shape_contract("mse: a(k,)")
def pick_flat_dimension(
    dims: Sequence[int], mse: ArrayLike, tolerance: float = 0.1
) -> int:
    """Pick the smallest ``d`` where the MSE has stopped decreasing.

    Implements the paper's line-10 rule ("pick the smallest d̃ where MSE
    stops decreasing from the plot"): after min-max normalization, the
    running-minimum curve is scanned and the smallest dimension whose
    normalized MSE is within ``tolerance`` of the remaining achievable
    minimum is returned.  ``tolerance`` encodes the paper's accuracy /
    dimension-reduction trade-off (they pick d̃=8 for the UVLO even though
    the literal minimum sits at 16).
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must lie in [0, 1), got {tolerance}")
    dims_arr = np.asarray(list(dims), dtype=int)
    mse_arr = np.asarray(mse, dtype=float)
    if dims_arr.shape != mse_arr.shape:
        raise ValueError("dims and mse must have matching lengths")
    if dims_arr.size == 0:
        raise ValueError("no candidate dimensions given")
    norm = _normalize(mse_arr)
    floor = float(np.min(norm))
    for d, value in zip(dims_arr, norm):
        if value <= floor + tolerance:
            return int(d)
    return int(dims_arr[-1])  # pragma: no cover - loop always hits the minimum


@shape_contract("X: a(n, D), y: a(n,) | a(n, 1)")
def select_embedding_dimension(
    X: ArrayLike,
    y: ArrayLike,
    dims: Sequence[int] | None = None,
    n_trials: int = 5,
    tolerance: float = 0.1,
    seed: SeedLike = None,
) -> DimensionSelectionResult:
    """Run Algorithm 2 on the initial dataset ``(X, y)``.

    Each trial fits an exact GP with an isotropic Matérn-5/2 kernel (cheap
    in the small-data regime Algorithm 2 is meant for), tunes its
    hyperparameters, and scores it by its training MSE (the paper's
    line 6).

    Parameters
    ----------
    X, y:
        Initial samples in the original ``D``-dimensional space and their
        simulated performances (the dataset ``D_0`` shared by all BO runs).
    dims:
        Candidate embedding dimensions; defaults to ``1..D``.
    n_trials:
        Random matrices per dimension (the paper's ``T``); their MSEs are
        averaged to damp the variance of a single random embedding.
    tolerance:
        Flatness tolerance of :func:`pick_flat_dimension`.
    """
    X_arr = as_matrix(X)
    y_arr = as_vector(y, X_arr.shape[0])
    D = X_arr.shape[1]
    if dims is None:
        dims = list(range(1, D + 1))
    dims = [int(d) for d in dims]
    if any(d < 1 or d > D for d in dims):
        raise ValueError(f"candidate dims must lie in [1, {D}]")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")

    rng = as_generator(seed)
    standardizer = Standardizer()
    y_std = standardizer.fit_transform(y_arr)

    mse_per_dim = np.empty(len(dims))
    for j, d in enumerate(dims):
        trial_rngs = spawn(rng, n_trials)
        trial_mse = np.empty(n_trials)
        for i, trial_rng in enumerate(trial_rngs):
            embedding = RandomEmbedding(D, d, seed=trial_rng)
            Z = embedding.to_embedded(X_arr)
            gp = GaussianProcess(Matern52(dim=d), noise_variance=1e-4)
            gp.fit(Z, y_std)
            fit_hyperparameters(gp, n_restarts=2, seed=trial_rng)
            pred = gp.predict(Z)
            trial_mse[i] = float(np.mean((pred.mean - y_std) ** 2))
        mse_per_dim[j] = float(np.mean(trial_mse))

    selected = pick_flat_dimension(dims, mse_per_dim, tolerance=tolerance)
    return DimensionSelectionResult(
        selected_dim=selected,
        dims=np.asarray(dims, dtype=int),
        mse=mse_per_dim,
        normalized_mse=_normalize(mse_per_dim),
        n_trials=n_trials,
    )
