"""The Matérn-5/2 covariance function, isotropic or ARD.

The paper's GP surrogate (Section 2.2.1) uses one stationary kernel; every
engine builds this one.  Its hyperparameters are exposed as an
unconstrained flat vector (``theta``) of *log*-transformed positive
parameters, which is what the marginal-likelihood optimizer in
:mod:`repro.gp` works with, and their gradients are analytic (paper Eq. 8).
"""

from __future__ import annotations

import copy

import numpy as np

from repro._typing import ArrayLike
from repro.kernels.base import KernelWorkspace, pairwise_sq_dists
from repro.utils.contracts import shape_contract
from repro.utils.validation import as_matrix

_SQRT5 = np.sqrt(5.0)


def _safe_sqrt(sq: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(sq, 0.0))


class Matern52:
    """Matérn ν=5/2 kernel ``v * (1 + √5 r + 5 r²/3) exp(-√5 r)``.

    Parameters
    ----------
    dim:
        Input dimensionality.  Required when ``ard=True``.
    variance:
        Signal variance (the kernel value at zero distance).
    lengthscale:
        Scalar lengthscale, or per-dimension vector when ``ard=True``.
    ard:
        Use one lengthscale per input dimension (automatic relevance
        determination).
    """

    def __init__(
        self,
        dim: int | None = None,
        variance: float = 1.0,
        lengthscale: float | np.ndarray = 1.0,
        ard: bool = False,
    ) -> None:
        if variance <= 0:
            raise ValueError(f"variance must be positive, got {variance}")
        self.dim = dim
        self.ard = bool(ard)
        ls = np.atleast_1d(np.asarray(lengthscale, dtype=float))
        if self.ard:
            if dim is None:
                raise ValueError("dim is required for an ARD kernel")
            if ls.shape[0] == 1:
                ls = np.full(dim, ls[0])
            if ls.shape[0] != dim:
                raise ValueError(
                    f"lengthscale has {ls.shape[0]} entries, expected {dim}"
                )
        elif ls.shape[0] != 1:
            raise ValueError("non-ARD kernel takes a scalar lengthscale")
        if np.any(ls <= 0):
            raise ValueError("lengthscales must be positive")
        self.variance = float(variance)
        self.lengthscales = ls

    # -- hyperparameter vector: [log variance, log lengthscales...] --------

    @property
    def n_params(self) -> int:
        """Number of tunable hyperparameters."""
        return 1 + self.lengthscales.shape[0]

    @property
    def theta(self) -> np.ndarray:
        """The unconstrained (log-space) hyperparameter vector."""
        return np.concatenate(
            [[np.log(self.variance)], np.log(self.lengthscales)]
        )

    @theta.setter
    def theta(self, value: ArrayLike) -> None:
        value = np.asarray(value, dtype=float)
        expected = 1 + self.lengthscales.shape[0]
        if value.shape != (expected,):
            raise ValueError(
                f"theta must have shape ({expected},), got {value.shape}"
            )
        self.variance = float(np.exp(value[0]))
        self.lengthscales = np.exp(value[1:])

    def theta_bounds(self) -> np.ndarray:
        """``(n_params, 2)`` log-space box bounds for optimization."""
        n_ls = self.lengthscales.shape[0]
        bounds = np.empty((1 + n_ls, 2))
        bounds[0] = (np.log(1e-6), np.log(1e6))
        bounds[1:] = (np.log(1e-3), np.log(1e3))
        return bounds

    def clone(self) -> "Matern52":
        """Return an independent copy (same hyperparameter values)."""
        return copy.deepcopy(self)

    # -- evaluation ---------------------------------------------------------
    #
    # The three entry points below reach the same values by different
    # arithmetic (a fused buffer sweep, a distance matrix then ``_g``, cached
    # scaled inputs then ``_g``); they differ in the last bits, and seeded
    # campaigns depend on each path's exact rounding.

    def diag(self, X: np.ndarray) -> np.ndarray:
        """``k(x_i, x_i)`` for each row, cheaper than ``diag(K(X, X))``.

        ``X`` is an ``(n, d)`` float array its caller already checked (the
        GPs' ``fit``, ``add_data`` and ``predict`` do); it is not re-checked.
        """
        return np.full(X.shape[0], self.variance)

    def _g(self, sq: np.ndarray) -> np.ndarray:
        """Correlation as a function of the scaled squared distance."""
        r = _safe_sqrt(sq)
        return (1.0 + _SQRT5 * r + (5.0 / 3.0) * sq) * np.exp(-_SQRT5 * r)

    def _dg_from_g(self, sq: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``dg/d(sq)`` recovered from an already-computed ``g``."""
        # exp(-√5 r) = g / (1 + √5 r + 5 sq / 3), denominator >= 1
        sr = _safe_sqrt(sq)
        sr *= _SQRT5
        sr += 1.0
        den = sq * (5.0 / 3.0)
        den += sr
        out = np.multiply(sr, g, out=sr)
        out *= -(5.0 / 6.0)
        out /= den
        return out

    def __call__(self, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
        """The Gram matrix ``K[i, j] = k(X[i], Z[j])`` (``Z=X`` if None)."""
        X = as_matrix(X, self.dim)
        if Z is None:
            # exact zeros on the self-Gram diagonal, so k(x, x) is exactly
            # the variance: the distance formula leaves O(eps) cancellation
            # noise there, which the sqrt in ``_g`` would amplify
            sq = pairwise_sq_dists(X, X, self.lengthscales)
            np.fill_diagonal(sq, 0.0)
            return self.variance * self._g(sq)
        Z = as_matrix(Z, self.dim)
        return self.variance * self._g(pairwise_sq_dists(X, Z, self.lengthscales))

    @shape_contract(
        "sq: (n, n), g_out: (n, n), dg_out?: (n, n), scratch: (n, n)",
        check_finite=False,  # out/scratch buffers hold uninitialized memory
    )
    def _corr_into(
        self,
        sq: np.ndarray,
        g_out: np.ndarray,
        dg_out: np.ndarray | None,
        scratch: np.ndarray,
    ) -> None:
        """Fill ``g_out`` (and ``dg_out`` when given) from ``sq >= 0``."""
        # Fully fused: one sqrt and one exp shared between g and dg, every
        # intermediate kept in the provided buffers.
        np.sqrt(sq, out=scratch)
        np.multiply(scratch, -_SQRT5, out=g_out)
        np.exp(g_out, out=g_out)  # e = exp(-√5 r)
        np.multiply(scratch, _SQRT5, out=scratch)
        scratch += 1.0  # p = 1 + √5 r
        if dg_out is not None:
            np.multiply(scratch, g_out, out=dg_out)
            dg_out *= -(5.0 / 6.0)  # dg = -(5/6) p e
            np.multiply(sq, g_out, out=scratch)
            scratch *= 5.0 / 3.0  # (5/3) sq e
            np.multiply(dg_out, -(6.0 / 5.0), out=g_out)  # p e
            g_out += scratch  # g = (p + 5/3 sq) e
        else:
            np.multiply(scratch, g_out, out=scratch)  # p e
            np.multiply(sq, g_out, out=g_out)
            g_out *= 5.0 / 3.0
            g_out += scratch

    # -- per-dataset workspaces ----------------------------------------------
    #
    # Marginal-likelihood fitting calls ``gram`` and then
    # ``gradient_inner_products`` at the *same* hyperparameters, hundreds of
    # times per fit.  The workspace memoizes the scaled squared distances
    # and the correlation matrix / its derivative (keyed by lengthscales) in
    # persistent buffers so each is computed exactly once per theta
    # evaluation with no large allocations.  Buffer contents are only valid
    # until the next evaluation at a different theta; no caller retains
    # them longer.

    def make_workspace(self, X: np.ndarray) -> KernelWorkspace:
        """Build a reusable evaluation workspace for the inputs ``X``."""
        return KernelWorkspace(as_matrix(X, self.dim))

    def extend_workspace(
        self, ws: KernelWorkspace, X_new: ArrayLike
    ) -> KernelWorkspace:
        """Return a workspace for ``[ws.X; X_new]``."""
        return self.make_workspace(np.vstack([ws.X, as_matrix(X_new)]))

    @staticmethod
    def _ws_buffer(ws: KernelWorkspace, name: str) -> np.ndarray:
        buf = ws.cache.get(name)
        if buf is None:
            buf = ws.cache[name] = np.empty((ws.n, ws.n))
        return buf

    def _ws_scaled_sq(self, ws: KernelWorkspace) -> np.ndarray:
        """Scaled squared distances at the current lengthscales (memoized)."""
        key = self.lengthscales.tobytes()
        if ws.cache.get("sq_key") != key:
            X = ws.X
            Xs = X / self.lengthscales
            rn = np.einsum("ij,ij->i", Xs, Xs)
            sq = self._ws_buffer(ws, "sq_buf")
            np.matmul(Xs, Xs.T, out=sq)
            np.multiply(sq, -2.0, out=sq)
            np.add(sq, rn[:, None], out=sq)
            np.add(sq, rn[None, :], out=sq)
            np.maximum(sq, 0.0, out=sq)
            np.fill_diagonal(sq, 0.0)
            ws.cache["sq_key"] = key
        return ws.cache["sq_buf"]

    def corr_state(
        self, ws: KernelWorkspace, need_dg: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(sq, g, dg)`` at the current hyperparameters (memoized).

        ``dg`` is computed lazily (and only when requested) so Gram-only
        callers — prediction refits, incremental updates — never pay for
        it.  Callers that know upfront they need the gradient (the
        marginal-likelihood evaluator) request ``need_dg=True`` before the
        first Gram evaluation so ``g`` and ``dg`` are computed fused.
        """
        sq = self._ws_scaled_sq(ws)
        key = ws.cache["sq_key"]
        g = self._ws_buffer(ws, "g_buf")
        if ws.cache.get("corr_key") != key:
            ws.cache["corr_key"] = key
            dg = self._ws_buffer(ws, "dg_buf") if need_dg else None
            self._corr_into(sq, g, dg, self._ws_buffer(ws, "tmp_buf"))
            ws.cache["corr_has_dg"] = need_dg
        elif need_dg and not ws.cache.get("corr_has_dg"):
            self._ws_buffer(ws, "dg_buf")[...] = self._dg_from_g(sq, g)
            ws.cache["corr_has_dg"] = True
        dg = ws.cache["dg_buf"] if ws.cache.get("corr_has_dg") else None
        return sq, g, dg

    def gram(self, ws: KernelWorkspace) -> np.ndarray:
        """Training Gram matrix at the current hyperparameters.

        Always returns a freshly allocated matrix the caller may mutate.
        """
        _, g, _ = self.corr_state(ws)
        return self.variance * g

    def gradient_inner_products(
        self, ws: KernelWorkspace, inner: np.ndarray
    ) -> np.ndarray:
        """``0.5 * sum(inner * dK/dtheta_j)`` for each hyperparameter.

        This is the contraction the marginal-likelihood gradient needs
        (``inner = alpha alpha^T - K^{-1}``), computed without
        materializing any ``dK/dtheta_j``.
        """
        _, g, dg = self.corr_state(ws, need_dg=True)
        n_ls = self.lengthscales.shape[0]
        out = np.empty(1 + (n_ls if self.ard else 1))
        out[0] = 0.5 * self.variance * np.vdot(inner, g)
        W = self._ws_buffer(ws, "w_buf")
        np.multiply(inner, dg, out=W)
        X = ws.X
        X2 = ws.cache.get("X2")
        if X2 is None:
            X2 = ws.cache["X2"] = X * X
        # <W, (x_ik - x_jk)^2> for every dimension k at once, via the
        # expansion sum_ij W_ij (x_ik^2 + x_jk^2 - 2 x_ik x_jk): only
        # O(n^2 d) GEMM work on (n, d) operands instead of a dense
        # (d, n, n) difference tensor sweep
        rc = W.sum(axis=0)
        rc += W.sum(axis=1)
        vec = X2.T @ rc
        vec -= 2.0 * np.einsum("ik,ik->k", X, W @ X)
        invl2 = self.lengthscales**-2.0
        if self.ard:
            # 0.5 tr(inner dK_k) = -v / l_k^2 * <inner * dg, diff2_k>
            out[1:] = -self.variance * invl2 * vec
        else:
            out[1] = -self.variance * float(invl2[0]) * vec.sum()
        return out

    def cross(self, ws: KernelWorkspace, Z: np.ndarray) -> np.ndarray:
        """Cross Gram matrix ``k(ws.X, Z)`` (the prediction hot path).

        ``Z`` is an ``(m, d)`` float array its caller already checked (the
        exact GP's ``add_data`` and ``predict`` do); it is not re-checked.
        """
        key = self.lengthscales.tobytes()
        if ws.cache.get("cross_key") != key:
            Xs = ws.X / self.lengthscales
            ws.cache["cross_key"] = key
            ws.cache["cross_Xs"] = Xs
            ws.cache["cross_xs_sq"] = np.einsum("ij,ij->i", Xs, Xs)
        Xs = ws.cache["cross_Xs"]
        xs_sq = ws.cache["cross_xs_sq"]
        Zs = Z / self.lengthscales
        zs_sq = np.einsum("ij,ij->i", Zs, Zs)
        sq = xs_sq[:, None] + zs_sq[None, :] - 2.0 * (Xs @ Zs.T)
        np.maximum(sq, 0.0, out=sq)
        return self.variance * self._g(sq)
