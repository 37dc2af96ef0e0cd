"""The two-pass marginal-likelihood gradient, kept as a test reference.

``MarginalLikelihoodEvaluator`` computes Eq. 8's gradient in one fused
pass: one Cholesky, one ``K⁻¹`` and a contraction that never forms any
``∂K/∂θ_j``.  This module is the straightforward version it must agree
with: the Matérn-5/2 Gram matrix's derivative with respect to each
log-hyperparameter, built explicitly, then
``∂L/∂θ_j = ½ tr((α αᵀ − K⁻¹) ∂K/∂θ_j)`` with ``α = K⁻¹ y``.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

_SQRT5 = np.sqrt(5.0)


def matern52_gram_gradients(kernel, X):
    """``[∂K/∂log v, ∂K/∂log l_1, ...]`` of the Matérn-5/2 Gram at ``X``.

    One lengthscale entry for an isotropic kernel, one per dimension for
    ARD.  With ``u_k = (x_ik − x_jk)² / l_k²`` and ``s = Σ_k u_k``,
    ``K = v g(s)`` where ``g = (1 + √5 r + 5 s / 3) e^{−√5 r}``,
    ``r = √s``, so ``∂K/∂log v = K`` and
    ``∂K/∂log l_k = v g'(s) · (−2 u_k)`` with
    ``g'(s) = −(5/6)(1 + √5 r) e^{−√5 r}``.
    """
    X = np.asarray(X, dtype=float)
    diff = (X[:, None, :] - X[None, :, :]) / kernel.lengthscales
    u = diff**2
    sq = u.sum(axis=-1)
    r = np.sqrt(sq)
    e = np.exp(-_SQRT5 * r)
    g = (1.0 + _SQRT5 * r + (5.0 / 3.0) * sq) * e
    dg = -(5.0 / 6.0) * (1.0 + _SQRT5 * r) * e
    v = kernel.variance
    grads = [v * g]
    if kernel.ard:
        grads.extend(v * dg * (-2.0 * u[..., k]) for k in range(X.shape[1]))
    else:
        grads.append(v * dg * (-2.0 * sq))
    return grads


def lml_gradient_two_pass(gp):
    """Eq. 8's gradient with respect to ``gp.theta``, term by term."""
    X, y = gp.X_train, gp.y_train
    n = X.shape[0]
    K = gp.kernel(X) + gp.noise_variance * np.eye(n)
    factor = cho_factor(K, lower=True)
    K_inv = cho_solve(factor, np.eye(n))
    alpha = cho_solve(factor, y)
    inner = np.outer(alpha, alpha) - K_inv
    grads = [
        0.5 * np.sum(inner * dK) for dK in matern52_gram_gradients(gp.kernel, X)
    ]
    # d(K + σ² I)/d(log σ²) = σ² I
    grads.append(0.5 * gp.noise_variance * np.trace(inner))
    return np.asarray(grads, dtype=float)
