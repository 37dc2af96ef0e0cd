"""Exact Gaussian-process regression (paper Eqs. 3-8).

The model implements the standard conjugate GP machinery on top of a
Cholesky factorization of ``K + sigma0^2 I``:

* posterior mean and variance at test points (Eqs. 5-7),
* the log marginal likelihood and its analytic gradient with respect to the
  kernel hyperparameters and the log noise variance (Eq. 8),
* leave-one-out cross-validation residuals (used by the embedding-dimension
  selector as a less optimistic alternative to training MSE).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import get_lapack_funcs

from repro._typing import ArrayLike, FloatArray
from repro.gp.mean import MeanFunction, ZeroMean
from repro.kernels.base import Kernel, KernelWorkspace
from repro.utils.contracts import shape_contract
from repro.utils.validation import as_matrix, as_vector

#: Diagonal jitter ladder tried when the Gram matrix is numerically singular.
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)

# resolve the LAPACK factorization/inverse routines once, not per call
_potrf, _potrs, _potri = get_lapack_funcs(
    ("potrf", "potrs", "potri"), (np.empty((1, 1)),)
)


@shape_contract("A: (n, n) -> (n, n)")
def chol_with_jitter(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky of ``A``, climbing the jitter ladder in place.

    ``A`` must already include the noise term on its diagonal and is mutated
    (jitter is accumulated onto the diagonal between attempts) — callers pass
    a freshly built matrix.  Raises ``LinAlgError`` if even the largest
    jitter fails.
    """
    diag = np.einsum("ii->i", A)
    added = 0.0
    last_error: Exception | None = None
    for jitter in _JITTERS:
        if jitter != added:
            diag += jitter - added
            added = jitter
        try:
            # The jittered entry point itself.
            return cholesky(A, lower=True, check_finite=False)  # numlint: disable=NL103
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            last_error = exc
    raise np.linalg.LinAlgError(
        "Gram matrix is not positive definite even with jitter"
    ) from last_error


@shape_contract("cov: (n, n) -> (n, n)")
def symmetrize(cov: FloatArray, jitter: float = 0.0) -> FloatArray:
    """Return ``½(C + Cᵀ)`` plus optional diagonal jitter.

    Posterior covariances assembled as ``K** − vᵀv`` (exact) or
    ``K** − vᵀv + wᵀw`` (sparse) are symmetric only up to floating-point
    round-off, and ``rng.multivariate_normal(..., method="cholesky")`` is
    exactly the kind of consumer that trips on the asymmetric low-order
    bits.  Every covariance-returning path shares this one helper so the
    PSD hygiene cannot drift between implementations.
    """
    out = 0.5 * (cov + cov.T)
    if jitter:
        diag = np.einsum("ii->i", out)
        diag += jitter
    return out


@shape_contract("chol: (n, n) -> (n, n)")
def inv_from_cholesky(chol: np.ndarray) -> np.ndarray:
    """Full inverse ``A^{-1}`` from the lower Cholesky factor of ``A``.

    Uses LAPACK ``dpotri`` (n^3/3 flops) instead of ``cho_solve`` against an
    identity matrix (n^3 flops).  ``chol`` must have an explicitly zeroed
    strict upper triangle (as every factor produced in this module does),
    which makes the symmetrization a plain transpose-add instead of a
    masked copy.
    """
    inv, info = _potri(chol, lower=True)
    if info != 0:  # pragma: no cover - factor is already validated
        raise np.linalg.LinAlgError(f"dpotri failed with info={info}")
    # dpotri fills only the lower triangle; the upper stays zero from chol
    out = inv + inv.T
    np.einsum("ii->i", out)[:] = np.einsum("ii->i", inv)
    return out


@dataclass
class GPPrediction:
    """Posterior prediction at a batch of test points."""

    mean: FloatArray
    variance: FloatArray

    @property
    def std(self) -> FloatArray:
        return np.sqrt(np.maximum(self.variance, 0.0))


class GaussianProcess:
    """Exact GP regression with explicit Gaussian observation noise.

    Parameters
    ----------
    kernel:
        Prior covariance function.
    noise_variance:
        The intrinsic noise ``sigma_0^2`` of Eq. 4.
    mean:
        Prior mean function; defaults to zero as in the paper.
    train_noise:
        When True, the log noise variance is appended to the hyperparameter
        vector exposed through :attr:`theta` and fitted jointly with the
        kernel parameters.
    """

    def __init__(
        self,
        kernel: Kernel,
        noise_variance: float = 1e-6,
        mean: MeanFunction | None = None,
        train_noise: bool = True,
    ) -> None:
        if noise_variance <= 0:
            raise ValueError(
                f"noise_variance must be positive, got {noise_variance}"
            )
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.mean = mean if mean is not None else ZeroMean()
        self.train_noise = bool(train_noise)
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._ws: KernelWorkspace | None = None
        self._K_inv: np.ndarray | None = None
        self._theta_fitted: np.ndarray | None = None

    def __getstate__(self) -> dict[str, Any]:
        # the workspace caches O(n^2 dim) tensors rebuilt lazily on demand;
        # dropping them keeps pickles (process-pool payloads) small
        state = self.__dict__.copy()
        state["_ws"] = None
        state["_K_inv"] = None
        return state

    @property
    def _workspace(self) -> KernelWorkspace:
        if self._ws is None:
            assert self._X is not None, "GP has not been fitted"
            self._ws = self.kernel.make_workspace(self._X)
        return self._ws

    # -- hyperparameter vector ----------------------------------------------

    @property
    def theta(self) -> np.ndarray:
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
            self._refit()

    def theta_bounds(self) -> np.ndarray:
        bounds = self.kernel.theta_bounds()
        if self.train_noise:
            noise_bounds = np.array([[np.log(1e-10), np.log(1e2)]], dtype=float)
            bounds = np.vstack([bounds, noise_bounds])
        return bounds

    # -- fitting --------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._chol is not None

    @property
    def n_train(self) -> int:
        return 0 if self._X is None else self._X.shape[0]

    @property
    def X_train(self) -> FloatArray:
        if self._X is None:
            raise RuntimeError("GP has not been fitted")
        return self._X

    @property
    def y_train(self) -> FloatArray:
        if self._y is None:
            raise RuntimeError("GP has not been fitted")
        return self._y

    def fit(self, X: ArrayLike, y: ArrayLike) -> "GaussianProcess":
        """Condition the GP on training data ``(X, y)``."""
        X_arr = as_matrix(X)
        self._X = X_arr
        self._y = as_vector(y, X_arr.shape[0])
        self._ws = None
        self._refit()
        return self

    def add_data(self, X: ArrayLike, y: ArrayLike) -> "GaussianProcess":
        """Append observations and re-condition (sequential BO update).

        When the hyperparameters are unchanged since the last factorization,
        the Cholesky factor is extended by a rank-``k`` block update in
        O(n^2 k) instead of refactorizing from scratch in O(n^3); an exact
        full refit is the fallback whenever the update is numerically
        infeasible or the hyperparameters moved.
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
        assert self._y is not None
        y_all = np.concatenate([self._y, y_arr])
        if self._try_append_points(X_arr):
            self._y = y_all
            self._refresh_alpha()
            return self
        self._X = np.vstack([self._X, X_arr])
        self._y = y_all
        self._ws = None
        self._refit()
        return self

    def set_labels(self, y: ArrayLike) -> "GaussianProcess":
        """Replace the training labels, keeping inputs and factorization.

        Only the residual solve is redone (O(n^2)); used when labels are
        re-standardized after a batch of new observations.
        """
        if self._X is None:
            raise RuntimeError("GP has not been fitted")
        self._y = as_vector(y, self._X.shape[0])
        self._refresh_alpha()
        return self

    def _try_append_points(self, X_new: np.ndarray) -> bool:
        """Extend ``_chol`` by a rank-k block update; False means refit."""
        if self._chol is None or self._theta_fitted is None:
            return False
        if not np.array_equal(self.theta, self._theta_fitted):
            return False
        ws = self._workspace
        n, k = ws.n, X_new.shape[0]
        B = self.kernel.cross(ws, X_new)  # (n, k)
        C = self.kernel(X_new)
        C_diag = np.einsum("ii->i", C)
        C_diag += self.noise_variance
        L21T = solve_triangular(self._chol, B, lower=True, check_finite=False)  # (n, k)
        S = C - L21T.T @ L21T
        try:
            # Fail fast: a jittered retry would mask an ill-conditioned
            # Schur complement that the exact-refit fallback handles better.
            L22 = cholesky(S, lower=True, check_finite=False)  # numlint: disable=NL103
        except np.linalg.LinAlgError:
            return False
        L = np.zeros((n + k, n + k))
        L[:n, :n] = self._chol
        L[n:, :n] = L21T.T
        L[n:, n:] = L22
        self._chol = L
        self._ws = self.kernel.extend_workspace(ws, X_new)
        self._X = self._ws.X
        return True

    def _refresh_alpha(self) -> None:
        assert self._X is not None and self._y is not None
        residual = self._y - self.mean(self._X)
        self._alpha = cho_solve((self._chol, True), residual, check_finite=False)
        self._K_inv = None

    def _refit(self) -> None:
        K = self.kernel.gram(self._workspace)
        # gram() returns a fresh matrix: add noise (and any jitter) in place
        # on its diagonal instead of allocating identity matrices per attempt
        diag = np.einsum("ii->i", K)
        diag += self.noise_variance
        self._chol = chol_with_jitter(K)
        self._theta_fitted = self.theta.copy()
        self._refresh_alpha()

    # -- prediction -------------------------------------------------------------

    def predict(self, X: ArrayLike) -> GPPrediction:
        """Posterior mean and variance at test points (Eqs. 5-7)."""
        if not self.is_fitted:
            raise RuntimeError("GP has not been fitted")
        assert self._X is not None
        X_arr = as_matrix(X, self._X.shape[1])
        k_star = self.kernel.cross(self._workspace, X_arr)  # (n_train, n_test)
        mean = self.mean(X_arr) + k_star.T @ self._alpha
        v = solve_triangular(self._chol, k_star, lower=True, check_finite=False)
        variance = self.kernel.diag(X_arr) - np.sum(v**2, axis=0)
        return GPPrediction(mean=mean, variance=np.maximum(variance, 0.0))

    def predict_cov(self, X: ArrayLike) -> tuple[FloatArray, FloatArray]:
        """Posterior mean and full covariance matrix at test points."""
        if not self.is_fitted:
            raise RuntimeError("GP has not been fitted")
        assert self._X is not None
        X_arr = as_matrix(X, self._X.shape[1])
        k_star = self.kernel.cross(self._workspace, X_arr)
        mean = self.mean(X_arr) + k_star.T @ self._alpha
        v = solve_triangular(self._chol, k_star, lower=True, check_finite=False)
        cov = self.kernel(X_arr) - v.T @ v
        return mean, symmetrize(cov)

    def sample_posterior(
        self, X: ArrayLike, n_samples: int, rng: np.random.Generator
    ) -> FloatArray:
        """Draw joint posterior samples; returns shape ``(n_samples, n_test)``."""
        mean, cov = self.predict_cov(X)
        cov = symmetrize(cov, jitter=1e-10)
        return rng.multivariate_normal(mean, cov, size=n_samples, method="cholesky")

    # -- evidence ----------------------------------------------------------------

    def log_marginal_likelihood(self) -> float:
        """Eq. 8 evaluated at the current hyperparameters."""
        if not self.is_fitted:
            raise RuntimeError("GP has not been fitted")
        assert self._X is not None and self._y is not None
        residual = self._y - self.mean(self._X)
        n = residual.shape[0]
        log_det = 2.0 * np.sum(np.log(np.diag(self._chol)))
        return float(
            -0.5 * residual @ self._alpha
            - 0.5 * log_det
            - 0.5 * n * np.log(2.0 * np.pi)
        )

    def log_marginal_likelihood_gradient(self) -> FloatArray:
        """Analytic gradient of Eq. 8 with respect to :attr:`theta`.

        Uses the standard identity
        ``dL/dθ_j = ½ tr((α αᵀ − K⁻¹) ∂K/∂θ_j)`` with ``α = K⁻¹ (y − m)``.

        This is the reference two-pass path; hyperparameter fitting uses the
        fused :meth:`log_marginal_likelihood_value_and_gradient` instead.
        """
        if not self.is_fitted:
            raise RuntimeError("GP has not been fitted")
        assert self._X is not None
        n = self._X.shape[0]
        K_inv = cho_solve((self._chol, True), np.eye(n))
        outer = np.outer(self._alpha, self._alpha)
        inner = outer - K_inv
        grads = []
        for dK in self.kernel.gradients(self._X):
            grads.append(0.5 * np.sum(inner * dK))
        if self.train_noise:
            # d(K + σ² I)/d(log σ²) = σ² I
            grads.append(0.5 * self.noise_variance * np.trace(inner))
        return np.asarray(grads, dtype=float)

    def _posterior_precision(self) -> FloatArray:
        """``(K + σ² I)^{-1}``, cached until the factorization changes."""
        if self._K_inv is None:
            assert self._chol is not None, "GP has not been fitted"
            self._K_inv = inv_from_cholesky(self._chol)
        return self._K_inv

    def log_marginal_likelihood_value_and_gradient(
        self,
    ) -> tuple[float, FloatArray]:
        """Eq. 8 and its θ-gradient sharing one Cholesky and one ``K⁻¹``.

        The gradient contraction is delegated to
        :meth:`Kernel.gradient_inner_products`, which for stationary kernels
        collapses all per-lengthscale traces into a handful of BLAS calls on
        workspace-cached tensors instead of materializing each ``∂K/∂θ_j``.
        """
        if not self.is_fitted:
            raise RuntimeError("GP has not been fitted")
        value = self.log_marginal_likelihood()
        K_inv = self._posterior_precision()
        inner = np.outer(self._alpha, self._alpha)
        inner -= K_inv
        grads = self.kernel.gradient_inner_products(self._workspace, inner)
        if self.train_noise:
            noise_grad = 0.5 * self.noise_variance * np.trace(inner)
            grads = np.concatenate([grads, [noise_grad]])
        return value, np.asarray(grads, dtype=float)

    # -- diagnostics -----------------------------------------------------------

    def training_mse(self) -> float:
        """Mean squared error of the posterior mean at the training inputs.

        This is the quantity averaged in the paper's Algorithm 2 (line 6):
        with observation noise the GP does not interpolate, so the training
        MSE measures how much signal survives a given embedding.
        """
        assert self._X is not None and self._y is not None
        pred = self.predict(self._X)
        return float(np.mean((pred.mean - self._y) ** 2))

    def loo_residuals(self) -> FloatArray:
        """Leave-one-out residuals via the Sundararajan-Keerthi identity.

        ``r_i = α_i / (K⁻¹)_{ii}`` gives the LOO prediction error without
        refitting n models.
        """
        if not self.is_fitted:
            raise RuntimeError("GP has not been fitted")
        assert self._alpha is not None
        diag = np.diag(self._posterior_precision())
        return self._alpha / np.maximum(diag, 1e-300)

    def loo_mse(self) -> float:
        """Leave-one-out cross-validation mean squared error."""
        return float(np.mean(self.loo_residuals() ** 2))
