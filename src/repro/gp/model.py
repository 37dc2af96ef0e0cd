"""Exact Gaussian-process regression (paper Eqs. 3-8).

The model implements the standard conjugate GP machinery on top of a
Cholesky factorization of ``K + sigma0^2 I``: the posterior mean and
variance at test points (Eqs. 5-7) under the paper's zero prior mean, and
the log marginal likelihood (Eq. 8).  Its gradient, which hyperparameter
fitting needs, is :class:`~repro.gp.evaluator.MarginalLikelihoodEvaluator`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import get_lapack_funcs

from repro._typing import ArrayLike, FloatArray
from repro.kernels.base import KernelWorkspace
from repro.kernels.stationary import Matern52
from repro.utils.contracts import shape_contract
from repro.utils.validation import as_matrix, as_vector

#: Diagonal jitter ladder tried when the Gram matrix is numerically singular.
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)

# resolve the LAPACK factorization/inverse/solve routines once, not per call
_potrf, _potrs, _potri, _trtrs = get_lapack_funcs(
    ("potrf", "potrs", "potri", "trtrs"), (np.empty((1, 1)),)
)


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``solve_triangular(L, B, lower=True, check_finite=False)``, unwrapped.

    The same LAPACK call scipy makes, in scipy's branch: an F-ordered
    factor is solved as is, a C-ordered one as the upper-triangular
    transposed system.  Both orders occur (``fit`` leaves an F-ordered
    factor, the rank-k update a C-ordered one), and the two calls do not
    round alike (a one-column ``B`` shows it), so seeded campaigns depend
    on keeping the branch.  ``L`` and ``B`` are 2-D float64 arrays the
    caller already checked.
    """
    x: np.ndarray
    if L.flags.f_contiguous:
        x, info = _trtrs(L, B, lower=1, trans=0)
    else:
        x, info = _trtrs(L.T, B, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    return x


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
    """

    def __init__(
        self,
        kernel: Matern52,
        noise_variance: float = 1e-6,
    ) -> None:
        if noise_variance <= 0:
            raise ValueError(
                f"noise_variance must be positive, got {noise_variance}"
            )
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._ws: KernelWorkspace | None = None
        self._theta_fitted: np.ndarray | None = None

    @property
    def _workspace(self) -> KernelWorkspace:
        if self._ws is None:
            assert self._X is not None, "GP has not been fitted"
            self._ws = self.kernel.make_workspace(self._X)
        return self._ws

    # -- hyperparameter vector ----------------------------------------------

    @property
    def theta(self) -> np.ndarray:
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
            self._refit()

    def theta_bounds(self) -> np.ndarray:
        noise_bounds = np.array([[np.log(1e-10), np.log(1e2)]], dtype=float)
        return np.vstack([self.kernel.theta_bounds(), noise_bounds])

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
        L21T = _solve_lower(self._chol, B)  # (n, k)
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
        assert self._y is not None
        self._alpha = cho_solve((self._chol, True), self._y, check_finite=False)

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
        """Posterior mean and variance at test points (Eqs. 5-7).

        The one place a scoring call checks its input: ``X`` must be finite
        with the training column count (one row may come as a vector).  The
        acquisitions pass their candidates straight here, and nothing below
        checks again.
        """
        if not self.is_fitted:
            raise RuntimeError("GP has not been fitted")
        assert self._X is not None and self._chol is not None
        X_arr = as_matrix(X, self._X.shape[1])
        k_star = self.kernel.cross(self._workspace, X_arr)  # (n_train, n_test)
        mean = k_star.T @ self._alpha
        v = _solve_lower(self._chol, k_star)
        variance = self.kernel.diag(X_arr) - np.sum(v**2, axis=0)
        return GPPrediction(mean=mean, variance=np.maximum(variance, 0.0))

    # -- evidence ----------------------------------------------------------------

    def log_marginal_likelihood(self) -> float:
        """Eq. 8 evaluated at the current hyperparameters."""
        if not self.is_fitted:
            raise RuntimeError("GP has not been fitted")
        assert self._y is not None
        n = self._y.shape[0]
        log_det = 2.0 * np.sum(np.log(np.diag(self._chol)))
        return float(
            -0.5 * self._y @ self._alpha
            - 0.5 * log_det
            - 0.5 * n * np.log(2.0 * np.pi)
        )
