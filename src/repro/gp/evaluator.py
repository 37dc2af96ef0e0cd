"""Side-effect-free marginal-likelihood evaluation for hyperparameter search.

``fit_hyperparameters`` evaluates the log marginal likelihood and its
gradient at hundreds of candidate hyperparameter vectors.  Doing that
through the ``GaussianProcess.theta`` setter refits the *model* on every
trial point (and historically could leave it inconsistent when a trial
Cholesky failed mid-refit).  :class:`MarginalLikelihoodEvaluator` instead
works on a cloned kernel plus a private :class:`KernelWorkspace`, so each
evaluation costs one Gram rescale, one Cholesky, and one ``K⁻¹`` — and the
GP itself is only touched once, when the winning theta is committed.

The linear algebra goes straight to the LAPACK primitives (``dpotrf`` /
``dpotrs`` / ``dpotri``) with a persistent ``alpha alpha^T - K^{-1}``
buffer, skipping the scipy wrapper overhead and the per-evaluation (n, n)
allocations that would otherwise dominate at moderate n.
"""

from __future__ import annotations

import numpy as np

from repro.gp.model import (
    GaussianProcess,
    _potrf,
    _potri,
    _potrs,
    chol_with_jitter,
)
from repro.utils.contracts import shape_contract

_LOG_2PI = np.log(2.0 * np.pi)


class MarginalLikelihoodEvaluator:
    """Evaluates ``(lml, grad)`` at arbitrary theta without mutating the GP.

    The evaluator snapshots the training inputs (into a reusable kernel
    workspace) and the labels at construction time; the source GP must not
    gain data while the evaluator is in use.
    """

    def __init__(self, gp: GaussianProcess) -> None:
        if not gp.is_fitted:
            raise RuntimeError("fit the GP on data before evaluating theta")
        self.kernel = gp.kernel.clone()
        self.y = gp.y_train.copy()
        self.ws = self.kernel.make_workspace(gp.X_train)
        self._y_col = np.asfortranarray(self.y[:, None], dtype=float)
        self._inner: np.ndarray | None = None

    @shape_contract("theta: a(p,) -> (), (p,)")
    def evaluate(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Fused Eq. 8 value and gradient at ``theta``.

        Shares one Cholesky and one ``K⁻¹`` between the value and every
        gradient component; raises ``LinAlgError`` when the Gram matrix is
        not positive definite even with jitter (callers treat that as a
        penalty point).
        """
        theta = np.asarray(theta, dtype=float)
        kernel = self.kernel
        n_kernel = kernel.n_params
        kernel.theta = theta[:n_kernel]
        noise = float(np.exp(theta[-1]))
        # prime g and dg together so the kernel computes them fused (one
        # sqrt/exp sweep) instead of in two passes
        kernel.corr_state(self.ws, need_dg=True)
        K = kernel.gram(self.ws)
        diag = np.einsum("ii->i", K)
        diag += noise
        chol, info = _potrf(K, lower=1, clean=1)
        if info != 0:  # singular without jitter: climb the ladder
            chol = chol_with_jitter(K)
        alpha = _potrs(chol, self._y_col, lower=1)[0].ravel()
        n = self.y.shape[0]
        log_det = 2.0 * np.sum(np.log(np.einsum("ii->i", chol)))
        lml = float(-0.5 * self.y @ alpha - 0.5 * log_det - 0.5 * n * _LOG_2PI)
        inner = self._inner
        if inner is None or inner.shape[0] != n:
            inner = self._inner = np.empty((n, n))
        # dpotri fills only the lower triangle of K^{-1} (the strict upper
        # stays zero from the factor), so subtract it plus its transpose and
        # repair the doubly-subtracted diagonal; the factor is dead at this
        # point, so invert it in place
        inv, info = _potri(chol, lower=1, overwrite_c=1)
        if info != 0:  # pragma: no cover - factor is already validated
            raise np.linalg.LinAlgError(f"dpotri failed with info={info}")
        np.multiply(alpha[:, None], alpha[None, :], out=inner)
        inner -= inv
        inner -= inv.T
        np.einsum("ii->i", inner)[...] += np.einsum("ii->i", inv)
        grads = kernel.gradient_inner_products(self.ws, inner)
        trace = float(np.einsum("ii->", inner))
        return lml, np.concatenate([grads, [0.5 * noise * trace]])
