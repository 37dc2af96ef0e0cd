"""Sparse inducing-point GP regression (DTC predictions, VFE evidence).

The exact GP's O(n³) refit and O(n²) memory cap campaign length; this model
replaces the full Gram factorization with an ``m``-point inducing
approximation (Quiñonero-Candela & Rasmussen 2005; Titsias 2009):

* **fit** is O(n m²): one Cholesky of ``K_uu`` (m×m), one triangular solve
  against the m×n cross-covariance, and one m×m information-matrix
  Cholesky,
* **predict** is O(m²) per test point and never touches an n×n matrix,
* **evidence** is the variational (Titsias) lower bound
  ``log N(y | m(X), Q_ff + σ²I) − σ⁻²/2 · tr(K_ff − Q_ff)`` where
  ``Q_ff = K_fu K_uu⁻¹ K_uf``, evaluated in O(n m²) via Woodbury.

With ``m >= n`` the inducing set *is* the training set, ``Q_ff = K_ff``,
the trace term vanishes, and every quantity — posterior mean, variance,
full covariance, and the evidence — reduces algebraically to the exact GP.
That identity is what the 1e-8 equivalence harness in
``tests/test_gp_sparse.py`` pins, so the sparse path is a checkable
superset of the exact one rather than a silently different model.

Inducing points are initialized from per-dimension data quantiles and
refined by a few deterministic Lloyd (k-means) iterations — no RNG, so
ledger replay and campaign resume stay bitwise.  Incremental
:meth:`SparseGaussianProcess.add_data` extends the cached factors in
O(k m² + m³) and re-selects the inducing set only when coverage degrades:
a new point whose best normalized kernel correlation to the inducing set
falls below ``reselect_coverage`` counts as uncovered, and once the
uncovered fraction of the dataset exceeds ``reselect_fraction`` the
inducing set is rebuilt from the full data.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.linalg import solve_triangular

from repro._typing import ArrayLike, FloatArray
from repro.gp.mean import MeanFunction, ZeroMean
from repro.gp.model import GPPrediction, chol_with_jitter, symmetrize
from repro.kernels.base import Kernel
from repro.utils.contracts import shape_contract
from repro.utils.validation import as_matrix, as_vector

#: Central-difference step for the finite-difference evidence gradient.
#: Hyperparameters live in log space, so an absolute step is well-scaled.
_FD_STEP = 1e-4


@shape_contract("X: (n, d), m: k -> (k, d)")
def select_inducing_points(
    X: ArrayLike, m: int, n_iters: int = 10
) -> FloatArray:
    """Pick ``m`` inducing points via data quantiles + k-means refinement.

    Initialization places point ``i`` at the per-dimension
    ``(i + 0.5) / m`` quantile of the data (a monotone space-filling curve
    through the empirical marginals), then runs up to ``n_iters``
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
    if n_iters < 0:
        raise ValueError(f"n_iters must be >= 0, got {n_iters}")
    if m == n:
        return X_arr.copy()
    levels = (np.arange(m, dtype=float) + 0.5) / m
    Z = np.quantile(X_arr, levels, axis=0)
    x_sq = np.einsum("ij,ij->i", X_arr, X_arr)
    for _ in range(n_iters):
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


class SparseGaussianProcess:
    """Inducing-point GP with the same engine-facing surface as the exact GP.

    Implements :class:`~repro.gp.surrogate.SurrogateModel`.  Construction
    mirrors :class:`~repro.gp.model.GaussianProcess` plus the sparse knobs;
    prefer building instances through
    :func:`~repro.gp.surrogate.make_surrogate`.

    Parameters
    ----------
    kernel:
        Prior covariance function.
    noise_variance:
        Observation noise ``σ₀²``.
    mean:
        Prior mean function; defaults to zero.
    train_noise:
        Append log noise variance to :attr:`theta` and fit it jointly.
    m:
        Inducing-point budget, clamped to ``n`` at fit time (``m >= n``
        reproduces the exact GP).
    inducing_points:
        Explicit inducing locations.  When given, ``m`` is ignored and the
        set is never re-selected — used by equivalence and parity tests.
    reselect_coverage / reselect_fraction / kmeans_iters:
        Re-selection policy; see the module docstring.
    """

    def __init__(
        self,
        kernel: Kernel,
        noise_variance: float = 1e-6,
        mean: MeanFunction | None = None,
        train_noise: bool = True,
        m: int = 256,
        inducing_points: ArrayLike | None = None,
        reselect_coverage: float = 0.25,
        reselect_fraction: float = 0.10,
        kmeans_iters: int = 10,
    ) -> None:
        if noise_variance <= 0:
            raise ValueError(
                f"noise_variance must be positive, got {noise_variance}"
            )
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if not 0.0 <= reselect_coverage <= 1.0:
            raise ValueError(
                f"reselect_coverage must lie in [0, 1], "
                f"got {reselect_coverage}"
            )
        if not 0.0 < reselect_fraction <= 1.0:
            raise ValueError(
                f"reselect_fraction must lie in (0, 1], "
                f"got {reselect_fraction}"
            )
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.mean = mean if mean is not None else ZeroMean()
        self.train_noise = bool(train_noise)
        self.m = int(m)
        self.reselect_coverage = float(reselect_coverage)
        self.reselect_fraction = float(reselect_fraction)
        self.kmeans_iters = int(kmeans_iters)
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

    def __getstate__(self) -> dict[str, Any]:
        # factors rebuild in O(n m^2) on demand; dropping them keeps pickles
        # (process-pool payloads) small, mirroring the exact GP
        state = self.__dict__.copy()
        for key in ("_Luu", "_LB", "_V", "_c"):
            state[key] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        if self._X is not None:
            self._factorize()

    # -- hyperparameter vector ----------------------------------------------

    @property
    def theta(self) -> FloatArray:
        """Kernel log-hyperparameters, plus log noise when ``train_noise``."""
        theta = self.kernel.theta
        if self.train_noise:
            theta = np.concatenate([theta, [np.log(self.noise_variance)]])
        return theta

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        n_kernel = self.kernel.n_params
        expected = n_kernel + (1 if self.train_noise else 0)
        if value.shape != (expected,):
            raise ValueError(
                f"theta must have shape ({expected},), got {value.shape}"
            )
        self.kernel.theta = value[:n_kernel]
        if self.train_noise:
            self.noise_variance = float(np.exp(value[-1]))
        if self._X is not None:
            self._factorize()

    def theta_bounds(self) -> FloatArray:
        bounds = self.kernel.theta_bounds()
        if self.train_noise:
            noise_bounds = np.array([[np.log(1e-10), np.log(1e2)]], dtype=float)
            bounds = np.vstack([bounds, noise_bounds])
        return bounds

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
        self._y = as_vector(y, self._X.shape[0])
        self._refresh_information_vector()
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
        return select_inducing_points(X, m_eff, n_iters=self.kmeans_iters)

    def _factorize(self) -> None:
        """Full O(n m²) refactorization at the current ``Z`` and theta."""
        assert self._X is not None and self._Z is not None
        kernel = self.kernel
        Kuu = kernel(self._Z)
        self._Luu = chol_with_jitter(Kuu)
        Kuf = kernel(self._Z, self._X)  # (m, n)
        self._V = solve_triangular(
            self._Luu, Kuf, lower=True, check_finite=False
        )
        self._trace_gap = max(
            float(
                np.sum(kernel.diag(self._X))
                - np.einsum("ij,ij->", self._V, self._V)
            ),
            0.0,
        )
        self._refresh_information_factor()
        self._n_uncovered = self._count_uncovered(Kuf, self._X)
        self._theta_fitted = self.theta.copy()

    def _refresh_information_factor(self) -> None:
        """``LB = chol(I + σ⁻² V Vᵀ)`` plus the information vector."""
        assert self._V is not None
        B = (self._V @ self._V.T) / self.noise_variance
        diag = np.einsum("ii->i", B)
        diag += 1.0
        self._LB = chol_with_jitter(B)
        self._refresh_information_vector()

    def _refresh_information_vector(self) -> None:
        assert self._X is not None and self._y is not None
        assert self._V is not None and self._LB is not None
        residual = self._y - self.mean(self._X)
        self._c = solve_triangular(
            self._LB, self._V @ residual, lower=True, check_finite=False
        )

    def _extend_factors(self, Kuf_new: FloatArray, X_new: FloatArray) -> None:
        """Incremental update for ``k`` appended points: O(k m² + m³)."""
        assert self._Luu is not None and self._V is not None
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
        self._refresh_information_factor()

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
        if self.reselect_coverage <= 0.0 or self._fixed_Z is not None:
            return 0
        return int(np.sum(self._coverage(Kuf, X) < self.reselect_coverage))

    def _monitor_coverage(
        self, Kuf_new: FloatArray, X_new: FloatArray
    ) -> bool:
        """Fold new points into the uncovered count; True means re-select."""
        if self._fixed_Z is not None or self.reselect_coverage <= 0.0:
            return False
        assert self._X is not None
        self._n_uncovered += self._count_uncovered(Kuf_new, X_new)
        return self._n_uncovered > self.reselect_fraction * self._X.shape[0]

    # -- prediction ----------------------------------------------------------

    def predict(self, X: ArrayLike) -> GPPrediction:
        """DTC posterior mean and variance in O(m²) per test point."""
        X_arr, v, w = self._test_solves(X)
        assert self._c is not None
        mean = self.mean(X_arr) + (w.T @ self._c) / self.noise_variance
        variance = (
            self.kernel.diag(X_arr)
            - np.einsum("ij,ij->j", v, v)
            + np.einsum("ij,ij->j", w, w)
        )
        return GPPrediction(mean=mean, variance=np.maximum(variance, 0.0))

    def predict_cov(self, X: ArrayLike) -> tuple[FloatArray, FloatArray]:
        """Posterior mean and full covariance matrix at test points."""
        X_arr, v, w = self._test_solves(X)
        assert self._c is not None
        mean = self.mean(X_arr) + (w.T @ self._c) / self.noise_variance
        cov = self.kernel(X_arr) - v.T @ v + w.T @ w
        return mean, symmetrize(cov)

    def sample_posterior(
        self, X: ArrayLike, n_samples: int, rng: np.random.Generator
    ) -> FloatArray:
        """Draw joint posterior samples; returns ``(n_samples, n_test)``."""
        mean, cov = self.predict_cov(X)
        cov = symmetrize(cov, jitter=1e-10)
        return rng.multivariate_normal(
            mean, cov, size=n_samples, method="cholesky"
        )

    def _test_solves(
        self, X: ArrayLike
    ) -> tuple[FloatArray, FloatArray, FloatArray]:
        if not self.is_fitted:
            raise RuntimeError("sparse GP has not been fitted")
        assert self._X is not None and self._Z is not None
        assert self._Luu is not None and self._LB is not None
        X_arr = as_matrix(X, self._X.shape[1])
        Kus = self.kernel(self._Z, X_arr)  # (m, n_test)
        v = solve_triangular(self._Luu, Kus, lower=True, check_finite=False)
        w = solve_triangular(self._LB, v, lower=True, check_finite=False)
        return X_arr, v, w

    # -- evidence ------------------------------------------------------------

    def log_marginal_likelihood(self) -> float:
        """The variational (Titsias) evidence lower bound.

        ``log N(y | m(X), Q_ff + σ²I) − σ⁻²/2 · tr(K_ff − Q_ff)``; equal to
        the exact Eq. 8 evidence whenever ``Q_ff = K_ff`` (``m >= n``).
        """
        if not self.is_fitted:
            raise RuntimeError("sparse GP has not been fitted")
        assert self._X is not None and self._y is not None
        assert self._LB is not None and self._c is not None
        residual = self._y - self.mean(self._X)
        n = residual.shape[0]
        noise = self.noise_variance
        quad = (residual @ residual) / noise - (self._c @ self._c) / noise**2
        log_det = n * np.log(noise) + 2.0 * np.sum(
            np.log(np.einsum("ii->i", self._LB))
        )
        return float(
            -0.5 * (quad + log_det + n * np.log(2.0 * np.pi))
            - 0.5 * self._trace_gap / noise
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

    def log_marginal_likelihood_gradient(self) -> FloatArray:
        """Finite-difference gradient of the bound at the current theta."""
        return self.evaluate_theta(self.theta)[1]

    def log_marginal_likelihood_value_and_gradient(
        self,
    ) -> tuple[float, FloatArray]:
        return self.evaluate_theta(self.theta)

    def _bound_at(self, theta: np.ndarray) -> float:
        """The variational bound at arbitrary theta, without mutating self."""
        if not self.is_fitted:
            raise RuntimeError("sparse GP has not been fitted")
        assert self._X is not None and self._y is not None
        assert self._Z is not None
        kernel = self.kernel.clone()
        n_kernel = kernel.n_params
        kernel.theta = np.asarray(theta[:n_kernel], dtype=float)
        noise = (
            float(np.exp(theta[-1]))
            if self.train_noise
            else self.noise_variance
        )
        Luu = chol_with_jitter(kernel(self._Z))
        V = solve_triangular(
            Luu, kernel(self._Z, self._X), lower=True, check_finite=False
        )
        trace_gap = max(
            float(np.sum(kernel.diag(self._X)) - np.einsum("ij,ij->", V, V)),
            0.0,
        )
        B = (V @ V.T) / noise
        diag = np.einsum("ii->i", B)
        diag += 1.0
        LB = chol_with_jitter(B)
        residual = self._y - self.mean(self._X)
        c = solve_triangular(LB, V @ residual, lower=True, check_finite=False)
        n = residual.shape[0]
        quad = (residual @ residual) / noise - (c @ c) / noise**2
        log_det = n * np.log(noise) + 2.0 * np.sum(
            np.log(np.einsum("ii->i", LB))
        )
        return float(
            -0.5 * (quad + log_det + n * np.log(2.0 * np.pi))
            - 0.5 * trace_gap / noise
        )


__all__ = ["SparseGaussianProcess", "select_inducing_points"]
