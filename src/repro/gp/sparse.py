"""Sparse inducing-point GP regression (DTC predictions, VFE evidence).

The exact GP's O(n³) refit and O(n²) memory cap campaign length; this model
replaces the full Gram factorization with an ``m``-point inducing
approximation (Quiñonero-Candela & Rasmussen 2005; Titsias 2009):

* **fit** is O(n m²): one Cholesky of ``K_uu`` (m×m), one triangular solve
  against the m×n cross-covariance, and one m×m information-matrix
  Cholesky,
* **predict** is O(m²) per test point and never touches an n×n matrix,
* **evidence** is the variational (Titsias) lower bound
  ``log N(y | 0, Q_ff + σ²I) − σ⁻²/2 · tr(K_ff − Q_ff)`` where
  ``Q_ff = K_fu K_uu⁻¹ K_uf``, evaluated in O(n m²) via Woodbury.

With ``m >= n`` the inducing set *is* the training set, ``Q_ff = K_ff``,
the trace term vanishes, and every quantity — posterior mean, variance
and the evidence — reduces algebraically to the exact GP.
That identity is what the 1e-8 equivalence harness in
``tests/test_gp_sparse.py`` pins, so the sparse path is a checkable
superset of the exact one rather than a silently different model.

Inducing points are initialized from per-dimension data quantiles and
refined by up to :data:`KMEANS_ITERS` deterministic Lloyd (k-means)
iterations — no RNG, so ledger replay and campaign resume stay bitwise.
Incremental :meth:`SparseGaussianProcess.add_data` extends the cached
factors in O(k m² + m³) and re-selects the inducing set only when
coverage degrades: a new point whose best normalized kernel correlation
to the inducing set falls below :data:`RESELECT_COVERAGE` counts as
uncovered, and once the uncovered fraction of the dataset exceeds
:data:`RESELECT_FRACTION` the inducing set is rebuilt from the full data.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from repro._typing import ArrayLike, FloatArray
from repro.gp.model import GPPrediction, chol_with_jitter
from repro.kernels.stationary import Matern52
from repro.utils.contracts import shape_contract
from repro.utils.validation import as_matrix, as_vector

#: Central-difference step for the finite-difference evidence gradient.
#: Hyperparameters live in log space, so an absolute step is well-scaled.
_FD_STEP = 1e-4

#: Kernel-correlation floor under which a training point counts as
#: uncovered by the current inducing set.
RESELECT_COVERAGE = 0.25

#: Uncovered fraction of the dataset at which :meth:`add_data` rebuilds
#: the inducing set.
RESELECT_FRACTION = 0.10

#: Lloyd refinement iterations of inducing-point selection.
KMEANS_ITERS = 10


@shape_contract("X: (n, d), m: k -> (k, d)")
def select_inducing_points(X: ArrayLike, m: int) -> FloatArray:
    """Pick ``m`` inducing points via data quantiles + k-means refinement.

    Initialization places point ``i`` at the per-dimension
    ``(i + 0.5) / m`` quantile of the data (a monotone space-filling curve
    through the empirical marginals), then runs up to :data:`KMEANS_ITERS`
    deterministic Lloyd iterations so the points spread over the actual
    data clusters instead of the quantile diagonal.  Centers that lose all
    members keep their previous position.  No RNG anywhere — the same data
    always yields the same inducing set, which keeps ledger replay and
    campaign resume bitwise.  Requires ``m <= n``.
    """
    X_arr = as_matrix(X)
    n = X_arr.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in [1, {n}], got {m}")
    if m == n:
        return X_arr.copy()
    levels = (np.arange(m, dtype=float) + 0.5) / m
    Z = np.quantile(X_arr, levels, axis=0)
    x_sq = np.einsum("ij,ij->i", X_arr, X_arr)
    for _ in range(KMEANS_ITERS):
        # assignment step on plain squared Euclidean distance
        d2 = x_sq[:, None] - 2.0 * (X_arr @ Z.T)
        d2 += np.einsum("ij,ij->i", Z, Z)[None, :]
        assign = np.argmin(d2, axis=1)
        Z_next = Z.copy()
        for j in np.unique(assign):
            Z_next[j] = X_arr[assign == j].mean(axis=0)
        if np.allclose(Z_next, Z, rtol=0.0, atol=1e-12):
            break
        Z = Z_next
    return Z


def _condition(
    kernel: Matern52,
    noise: float,
    Z: FloatArray,
    X: FloatArray,
    y: FloatArray,
) -> tuple[FloatArray, FloatArray, FloatArray, float, FloatArray, FloatArray]:
    """The VFE factors of ``(X, y)`` at inducing set ``Z``, kernel and noise.

    Returns ``(Kuf, Luu, V, trace_gap, LB, c)``: the cross-covariance,
    ``Luu = chol(K_uu)``, ``V = Luu⁻¹ K_uf``, the clipped trace term
    ``tr(K_ff − Q_ff)``, and :func:`_information`'s ``LB`` and ``c``.
    """
    Luu = chol_with_jitter(kernel(Z))
    Kuf = kernel(Z, X)  # (m, n)
    V = solve_triangular(Luu, Kuf, lower=True, check_finite=False)
    trace_gap = max(
        float(np.sum(kernel.diag(X)) - np.einsum("ij,ij->", V, V)), 0.0
    )
    LB, c = _information(V, y, noise)
    return Kuf, Luu, V, trace_gap, LB, c


def _information(
    V: FloatArray, y: FloatArray, noise: float
) -> tuple[FloatArray, FloatArray]:
    """``LB = chol(I + σ⁻² V Vᵀ)`` and the information vector ``LB⁻¹ V y``."""
    B = (V @ V.T) / noise
    diag = np.einsum("ii->i", B)
    diag += 1.0
    LB = chol_with_jitter(B)
    return LB, solve_triangular(LB, V @ y, lower=True, check_finite=False)


def _bound(
    y: FloatArray, LB: FloatArray, c: FloatArray, trace_gap: float, noise: float
) -> float:
    """The variational bound of :func:`_condition`'s factors, via Woodbury."""
    n = y.shape[0]
    quad = (y @ y) / noise - (c @ c) / noise**2
    log_det = n * np.log(noise) + 2.0 * np.sum(np.log(np.einsum("ii->i", LB)))
    return float(
        -0.5 * (quad + log_det + n * np.log(2.0 * np.pi)) - 0.5 * trace_gap / noise
    )


class SparseGaussianProcess:
    """Inducing-point GP with the same engine-facing surface as the exact GP.

    Implements :class:`~repro.gp.surrogate.SurrogateModel`.  Construction
    mirrors :class:`~repro.gp.model.GaussianProcess` plus the inducing
    budget; campaigns build instances through
    :func:`~repro.gp.surrogate.make_surrogate`.

    Parameters
    ----------
    kernel:
        Prior covariance function.
    noise_variance:
        Observation noise ``σ₀²``.
    m:
        Inducing-point budget, clamped to ``n`` at fit time (``m >= n``
        reproduces the exact GP).
    inducing_points:
        Explicit inducing locations.  When given, ``m`` is ignored and the
        set is never re-selected — used by equivalence and parity tests.
    """

    def __init__(
        self,
        kernel: Matern52,
        noise_variance: float = 1e-6,
        m: int = 256,
        inducing_points: ArrayLike | None = None,
    ) -> None:
        if noise_variance <= 0:
            raise ValueError(
                f"noise_variance must be positive, got {noise_variance}"
            )
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.m = int(m)
        self._fixed_Z = (
            as_matrix(inducing_points) if inducing_points is not None else None
        )
        #: How many times :meth:`add_data` rebuilt the inducing set.
        self.n_reselections = 0
        self._X: FloatArray | None = None
        self._y: FloatArray | None = None
        self._Z: FloatArray | None = None
        self._Luu: FloatArray | None = None
        self._LB: FloatArray | None = None
        self._V: FloatArray | None = None
        self._c: FloatArray | None = None
        self._trace_gap = 0.0
        self._n_uncovered = 0
        self._theta_fitted: FloatArray | None = None

    # -- hyperparameter vector ----------------------------------------------

    @property
    def theta(self) -> FloatArray:
        """Kernel log-hyperparameters, then the log noise variance."""
        return np.concatenate([self.kernel.theta, [np.log(self.noise_variance)]])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        n_kernel = self.kernel.n_params
        if value.shape != (n_kernel + 1,):
            raise ValueError(
                f"theta must have shape ({n_kernel + 1},), got {value.shape}"
            )
        self.kernel.theta = value[:n_kernel]
        self.noise_variance = float(np.exp(value[-1]))
        if self._X is not None:
            self._factorize()

    def theta_bounds(self) -> FloatArray:
        noise_bounds = np.array([[np.log(1e-10), np.log(1e2)]], dtype=float)
        return np.vstack([self.kernel.theta_bounds(), noise_bounds])

    # -- state --------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._LB is not None

    @property
    def n_train(self) -> int:
        return 0 if self._X is None else self._X.shape[0]

    @property
    def X_train(self) -> FloatArray:
        if self._X is None:
            raise RuntimeError("sparse GP has not been fitted")
        return self._X

    @property
    def y_train(self) -> FloatArray:
        if self._y is None:
            raise RuntimeError("sparse GP has not been fitted")
        return self._y

    @property
    def inducing_points(self) -> FloatArray:
        if self._Z is None:
            raise RuntimeError("sparse GP has not been fitted")
        return self._Z

    @property
    def n_inducing(self) -> int:
        return 0 if self._Z is None else self._Z.shape[0]

    # -- fitting -------------------------------------------------------------

    def fit(self, X: ArrayLike, y: ArrayLike) -> "SparseGaussianProcess":
        """Condition on ``(X, y)``, (re)selecting the inducing set."""
        X_arr = as_matrix(X)
        self._X = X_arr
        self._y = as_vector(y, X_arr.shape[0])
        self._Z = self._choose_inducing(X_arr)
        self._factorize()
        return self

    def add_data(self, X: ArrayLike, y: ArrayLike) -> "SparseGaussianProcess":
        """Append observations; re-select inducing points only on demand.

        The common case extends the cached factors in O(k m² + m³): new
        cross-covariance columns plus a refreshed m×m information Cholesky.
        A full inducing-set rebuild happens only when (a) the
        hyperparameters moved since the last factorization, (b) the
        inducing budget is not yet exhausted (the set must grow with the
        data), or (c) the coverage monitor trips.
        """
        X_arr = as_matrix(X)
        y_arr = as_vector(y, X_arr.shape[0])
        if self._X is None:
            return self.fit(X_arr, y_arr)
        if X_arr.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"new points have dim {X_arr.shape[1]}, "
                f"model has {self._X.shape[1]}"
            )
        assert self._y is not None and self._Z is not None
        X_all = np.vstack([self._X, X_arr])
        y_all = np.concatenate([self._y, y_arr])
        theta_moved = self._theta_fitted is None or not np.array_equal(
            self.theta, self._theta_fitted
        )
        budget_open = self._fixed_Z is None and self._Z.shape[0] < min(
            self.m, X_all.shape[0]
        )
        self._X = X_all
        self._y = y_all
        if theta_moved or budget_open:
            # hyperparameters changed, or the inducing budget is not yet
            # exhausted and the set must track the grown data
            self._Z = self._choose_inducing(X_all)
            self._factorize()
            return self
        Kuf_new = self.kernel(self._Z, X_arr)  # (m, k)
        if self._monitor_coverage(Kuf_new, X_arr):
            self._Z = self._choose_inducing(X_all)
            self.n_reselections += 1
            self._factorize()
            return self
        self._extend_factors(Kuf_new, X_arr)
        return self

    def set_labels(self, y: ArrayLike) -> "SparseGaussianProcess":
        """Replace training labels, keeping inputs and cached factors."""
        if self._X is None:
            raise RuntimeError("sparse GP has not been fitted")
        assert self._V is not None and self._LB is not None
        self._y = as_vector(y, self._X.shape[0])
        self._c = solve_triangular(
            self._LB, self._V @ self._y, lower=True, check_finite=False
        )
        return self

    def _choose_inducing(self, X: FloatArray) -> FloatArray:
        if self._fixed_Z is not None:
            if self._fixed_Z.shape[1] != X.shape[1]:
                raise ValueError(
                    f"inducing points have dim {self._fixed_Z.shape[1]}, "
                    f"data has {X.shape[1]}"
                )
            return self._fixed_Z
        m_eff = min(self.m, X.shape[0])
        if m_eff == X.shape[0]:
            return X.copy()
        return select_inducing_points(X, m_eff)

    def _factorize(self) -> None:
        """Full O(n m²) refactorization at the current ``Z`` and theta."""
        assert self._X is not None and self._Z is not None
        assert self._y is not None
        Kuf, self._Luu, self._V, self._trace_gap, self._LB, self._c = _condition(
            self.kernel, self.noise_variance, self._Z, self._X, self._y
        )
        self._n_uncovered = self._count_uncovered(Kuf, self._X)
        self._theta_fitted = self.theta.copy()

    def _extend_factors(self, Kuf_new: FloatArray, X_new: FloatArray) -> None:
        """Incremental update for ``k`` appended points: O(k m² + m³)."""
        assert self._Luu is not None and self._V is not None
        assert self._y is not None
        V_new = solve_triangular(
            self._Luu, Kuf_new, lower=True, check_finite=False
        )
        self._V = np.hstack([self._V, V_new])
        self._trace_gap = max(
            self._trace_gap
            + float(
                np.sum(self.kernel.diag(X_new))
                - np.einsum("ij,ij->", V_new, V_new)
            ),
            0.0,
        )
        self._LB, self._c = _information(self._V, self._y, self.noise_variance)

    # -- coverage monitoring -------------------------------------------------

    def _coverage(self, Kuf: FloatArray, X: FloatArray) -> FloatArray:
        """Best normalized kernel correlation of each data point to ``Z``."""
        assert self._Z is not None
        diag_u = np.maximum(self.kernel.diag(self._Z), 1e-300)
        diag_f = np.maximum(self.kernel.diag(X), 1e-300)
        corr = Kuf / np.sqrt(diag_u)[:, None]
        corr /= np.sqrt(diag_f)[None, :]
        return np.max(corr, axis=0)

    def _count_uncovered(self, Kuf: FloatArray, X: FloatArray) -> int:
        if self._fixed_Z is not None:
            return 0
        return int(np.sum(self._coverage(Kuf, X) < RESELECT_COVERAGE))

    def _monitor_coverage(
        self, Kuf_new: FloatArray, X_new: FloatArray
    ) -> bool:
        """Fold new points into the uncovered count; True means re-select."""
        if self._fixed_Z is not None:
            return False
        assert self._X is not None
        self._n_uncovered += self._count_uncovered(Kuf_new, X_new)
        return self._n_uncovered > RESELECT_FRACTION * self._X.shape[0]

    # -- prediction ----------------------------------------------------------

    def predict(self, X: ArrayLike) -> GPPrediction:
        """DTC posterior mean and variance in O(m²) per test point."""
        if not self.is_fitted:
            raise RuntimeError("sparse GP has not been fitted")
        assert self._X is not None and self._Z is not None
        assert self._Luu is not None and self._LB is not None
        assert self._c is not None
        X_arr = as_matrix(X, self._X.shape[1])
        Kus = self.kernel(self._Z, X_arr)  # (m, n_test)
        v = solve_triangular(self._Luu, Kus, lower=True, check_finite=False)
        w = solve_triangular(self._LB, v, lower=True, check_finite=False)
        mean = (w.T @ self._c) / self.noise_variance
        variance = (
            self.kernel.diag(X_arr)
            - np.einsum("ij,ij->j", v, v)
            + np.einsum("ij,ij->j", w, w)
        )
        return GPPrediction(mean=mean, variance=np.maximum(variance, 0.0))

    # -- evidence ------------------------------------------------------------

    def log_marginal_likelihood(self) -> float:
        """The variational (Titsias) evidence lower bound.

        ``log N(y | 0, Q_ff + σ²I) − σ⁻²/2 · tr(K_ff − Q_ff)``; equal to
        the exact Eq. 8 evidence whenever ``Q_ff = K_ff`` (``m >= n``).
        """
        if not self.is_fitted:
            raise RuntimeError("sparse GP has not been fitted")
        assert self._y is not None
        assert self._LB is not None and self._c is not None
        return _bound(
            self._y, self._LB, self._c, self._trace_gap, self.noise_variance
        )

    def evaluate_theta(self, theta: np.ndarray) -> tuple[float, FloatArray]:
        """Side-effect-free evidence value and gradient at ``theta``.

        The value is the variational bound recomputed on a cloned kernel;
        the gradient is a central finite difference over the (small)
        log-hyperparameter vector — ``2p`` extra O(n m²) bound evaluations,
        which keeps the kernel API free of cross-covariance derivatives.
        Raises ``LinAlgError`` when a trial factorization fails, which
        hyperparameter search treats as a penalty point.
        """
        theta = np.asarray(theta, dtype=float)
        value = self._bound_at(theta)
        grad = np.empty_like(theta)
        for j in range(theta.shape[0]):
            step = np.zeros_like(theta)
            step[j] = _FD_STEP
            grad[j] = (
                self._bound_at(theta + step) - self._bound_at(theta - step)
            ) / (2.0 * _FD_STEP)
        return value, grad

    def _bound_at(self, theta: np.ndarray) -> float:
        """The variational bound at arbitrary theta, without mutating self:
        :func:`_condition` on a cloned kernel, as :meth:`_factorize` runs it."""
        if not self.is_fitted:
            raise RuntimeError("sparse GP has not been fitted")
        assert self._X is not None and self._y is not None
        assert self._Z is not None
        kernel = self.kernel.clone()
        n_kernel = kernel.n_params
        kernel.theta = np.asarray(theta[:n_kernel], dtype=float)
        noise = float(np.exp(theta[-1]))
        _, _, _, trace_gap, LB, c = _condition(
            kernel, noise, self._Z, self._X, self._y
        )
        return _bound(self._y, LB, c, trace_gap, noise)


__all__ = ["SparseGaussianProcess", "select_inducing_points"]
