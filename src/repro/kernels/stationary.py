"""Stationary covariance functions with optional ARD lengthscales.

The paper's GP surrogate (Section 2.2.1) uses the squared-exponential or
Matérn families; all of them are provided here with analytic gradients with
respect to log-hyperparameters so that marginal-likelihood fitting is exact.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel, KernelWorkspace, pairwise_sq_dists
from repro.utils.contracts import shape_contract
from repro.utils.validation import as_matrix

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)


class StationaryKernel(Kernel):
    """Base class for kernels of the form ``variance * g(r)``.

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
    def theta(self) -> np.ndarray:
        return np.concatenate(
            [[np.log(self.variance)], np.log(self.lengthscales)]
        )

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        expected = 1 + self.lengthscales.shape[0]
        if value.shape != (expected,):
            raise ValueError(
                f"theta must have shape ({expected},), got {value.shape}"
            )
        self.variance = float(np.exp(value[0]))
        self.lengthscales = np.exp(value[1:])

    def theta_bounds(self) -> np.ndarray:
        n_ls = self.lengthscales.shape[0]
        bounds = np.empty((1 + n_ls, 2))
        bounds[0] = (np.log(1e-6), np.log(1e6))
        bounds[1:] = (np.log(1e-3), np.log(1e3))
        return bounds

    # -- distance helpers ---------------------------------------------------

    def _scaled_sq_dists(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        return pairwise_sq_dists(X, Z, self.lengthscales)

    def _per_dim_sq_dists(self, X: np.ndarray) -> list[np.ndarray]:
        """``u_k[i,j] = (x_ik - x_jk)^2 / l_k^2`` for each ARD dimension."""
        X = as_matrix(X)
        out = []
        for k in range(X.shape[1]):
            d = (X[:, k][:, None] - X[:, k][None, :]) / self.lengthscales[k]
            out.append(d**2)
        return out

    def diag(self, X: np.ndarray) -> np.ndarray:
        X = as_matrix(X)
        return np.full(X.shape[0], self.variance)

    # -- subclass hooks ------------------------------------------------------

    def _g(self, sq: np.ndarray) -> np.ndarray:
        """Correlation as a function of the scaled squared distance."""
        raise NotImplementedError

    def _dg_dsq(self, sq: np.ndarray) -> np.ndarray:
        """Derivative of the correlation w.r.t. the scaled squared distance."""
        raise NotImplementedError

    def __call__(self, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
        X = as_matrix(X, self.dim)
        if Z is None:
            # exact zeros on the self-Gram diagonal: the O(eps) cancellation
            # noise of the distance formula is amplified unboundedly by the
            # sqrt in the non-smooth Matern kernels
            sq = self._scaled_sq_dists(X, X)
            np.fill_diagonal(sq, 0.0)
            return self.variance * self._g(sq)
        Z = as_matrix(Z, self.dim)
        return self.variance * self._g(self._scaled_sq_dists(X, Z))

    def gradients(self, X: np.ndarray) -> list[np.ndarray]:
        X = as_matrix(X, self.dim)
        sq = self._scaled_sq_dists(X, X)
        np.fill_diagonal(sq, 0.0)
        g = self._g(sq)
        dg = self._dg_dsq(sq)
        grads = [self.variance * g]  # d/d log variance
        if self.ard:
            # d sq / d log l_k = -2 u_k
            for u in self._per_dim_sq_dists(X):
                grads.append(self.variance * dg * (-2.0 * u))
        else:
            grads.append(self.variance * dg * (-2.0 * sq))
        grads.extend(self._extra_gradients(sq))
        return grads

    def _extra_gradients(self, sq: np.ndarray) -> list[np.ndarray]:
        """Gradients of hyperparameters beyond variance/lengthscales.

        Receives the scaled squared distances already computed by
        :meth:`gradients`, so subclasses with extra shape parameters (e.g.
        the rational quadratic's ``alpha``) need not rebuild them.
        """
        return []

    def _dg_from_g(self, sq: np.ndarray, g: np.ndarray) -> np.ndarray | None:
        """Recover ``dg/d(sq)`` from an already-computed ``g``, or None.

        For every kernel in this family the derivative is an algebraic
        function of the correlation itself, so reusing ``g`` skips the
        transcendental (``exp``/``pow``) re-evaluation that dominates
        :meth:`_dg_dsq`.  Subclasses return None to fall back.
        """
        return None

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
        """Fill ``g_out`` (and ``dg_out`` when given) from ``sq >= 0``.

        The default delegates to the allocating hooks; subclasses on the
        hyperopt hot path override it with a fully fused, buffer-reusing
        computation (``scratch`` is a same-shape work array).
        """
        g_out[...] = self._g(sq)
        if dg_out is not None:
            dg = self._dg_from_g(sq, g_out)
            dg_out[...] = self._dg_dsq(sq) if dg is None else dg

    def _shape_key(self) -> bytes:
        """Cache-key fragment for shape hyperparameters beyond lengthscales."""
        return b""

    # -- workspace fast paths ----------------------------------------------
    #
    # Marginal-likelihood fitting calls ``gram`` and then
    # ``gradient_inner_products`` at the *same* hyperparameters, hundreds of
    # times per fit.  The workspace memoizes the scaled squared distances
    # (keyed by lengthscales) and the correlation matrix / its derivative
    # (keyed by lengthscales + shape parameters) in persistent buffers so
    # each is computed exactly once per theta evaluation with no large
    # allocations.  Buffer contents are only valid until the next
    # evaluation at a different theta; no caller retains them longer.

    def make_workspace(self, X: np.ndarray) -> KernelWorkspace:
        return KernelWorkspace(as_matrix(X, self.dim))

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
        key = ws.cache["sq_key"] + self._shape_key()
        g = self._ws_buffer(ws, "g_buf")
        if ws.cache.get("corr_key") != key:
            ws.cache["corr_key"] = key
            dg = self._ws_buffer(ws, "dg_buf") if need_dg else None
            self._corr_into(sq, g, dg, self._ws_buffer(ws, "tmp_buf"))
            ws.cache["corr_has_dg"] = need_dg
        elif need_dg and not ws.cache.get("corr_has_dg"):
            dg = self._ws_buffer(ws, "dg_buf")
            from_g = self._dg_from_g(sq, g)
            dg[...] = self._dg_dsq(sq) if from_g is None else from_g
            ws.cache["corr_has_dg"] = True
        dg = ws.cache["dg_buf"] if ws.cache.get("corr_has_dg") else None
        return sq, g, dg

    def gram(self, ws: KernelWorkspace) -> np.ndarray:
        _, g, _ = self.corr_state(ws)
        return self.variance * g

    def gradient_inner_products(
        self, ws: KernelWorkspace, inner: np.ndarray
    ) -> np.ndarray:
        sq, g, dg = self.corr_state(ws, need_dg=True)
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
        extras = self._extra_gradients(sq)
        if extras:
            out = np.concatenate(
                [out, [0.5 * np.vdot(inner, dK) for dK in extras]]
            )
        return out

    def cross(self, ws: KernelWorkspace, Z: np.ndarray) -> np.ndarray:
        Z = as_matrix(Z, self.dim)
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


class SquaredExponential(StationaryKernel):
    """Squared-exponential (RBF) kernel ``v * exp(-r^2 / 2)``."""

    def _g(self, sq: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * sq)

    def _dg_dsq(self, sq: np.ndarray) -> np.ndarray:
        return -0.5 * np.exp(-0.5 * sq)

    def _dg_from_g(self, sq: np.ndarray, g: np.ndarray) -> np.ndarray:
        return -0.5 * g

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
        np.multiply(sq, -0.5, out=g_out)
        np.exp(g_out, out=g_out)
        if dg_out is not None:
            np.multiply(g_out, -0.5, out=dg_out)


#: Common alias for :class:`SquaredExponential`.
RBF = SquaredExponential


def _safe_sqrt(sq: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(sq, 0.0))


class Matern12(StationaryKernel):
    """Matérn ν=1/2 (exponential) kernel ``v * exp(-r)``."""

    def _g(self, sq: np.ndarray) -> np.ndarray:
        return np.exp(-_safe_sqrt(sq))

    def _dg_dsq(self, sq: np.ndarray) -> np.ndarray:
        r = _safe_sqrt(sq)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(r > 0, -np.exp(-r) / (2.0 * np.maximum(r, 1e-300)), 0.0)
        return out

    def _dg_from_g(self, sq: np.ndarray, g: np.ndarray) -> np.ndarray:
        r = _safe_sqrt(sq)
        return np.where(r > 0, -g / (2.0 * np.maximum(r, 1e-300)), 0.0)


class Matern32(StationaryKernel):
    """Matérn ν=3/2 kernel ``v * (1 + √3 r) exp(-√3 r)``."""

    def _g(self, sq: np.ndarray) -> np.ndarray:
        r = _safe_sqrt(sq)
        return (1.0 + _SQRT3 * r) * np.exp(-_SQRT3 * r)

    def _dg_dsq(self, sq: np.ndarray) -> np.ndarray:
        # dg/d(sq) = (dg/dr) / (2r) = -3 r exp(-√3 r) / (2r) = -1.5 exp(-√3 r)
        r = _safe_sqrt(sq)
        return -1.5 * np.exp(-_SQRT3 * r)

    def _dg_from_g(self, sq: np.ndarray, g: np.ndarray) -> np.ndarray:
        # exp(-√3 r) = g / (1 + √3 r), and the denominator is >= 1
        return -1.5 * g / (1.0 + _SQRT3 * _safe_sqrt(sq))


class Matern52(StationaryKernel):
    """Matérn ν=5/2 kernel ``v * (1 + √5 r + 5 r²/3) exp(-√5 r)``."""

    def _g(self, sq: np.ndarray) -> np.ndarray:
        r = _safe_sqrt(sq)
        return (1.0 + _SQRT5 * r + (5.0 / 3.0) * sq) * np.exp(-_SQRT5 * r)

    def _dg_dsq(self, sq: np.ndarray) -> np.ndarray:
        # dg/dr = -(5r/3)(1 + √5 r) exp(-√5 r); dg/dsq = dg/dr / (2r)
        r = _safe_sqrt(sq)
        return -(5.0 / 6.0) * (1.0 + _SQRT5 * r) * np.exp(-_SQRT5 * r)

    def _dg_from_g(self, sq: np.ndarray, g: np.ndarray) -> np.ndarray:
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


class RationalQuadratic(StationaryKernel):
    """Rational-quadratic kernel ``v * (1 + r²/(2α))^{-α}``.

    Behaves like a scale mixture of SE kernels; ``alpha`` is an extra
    hyperparameter appended to the end of ``theta``.
    """

    def __init__(
        self,
        dim: int | None = None,
        variance: float = 1.0,
        lengthscale: float | np.ndarray = 1.0,
        ard: bool = False,
        alpha: float = 1.0,
    ) -> None:
        super().__init__(dim=dim, variance=variance, lengthscale=lengthscale, ard=ard)
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate(
            [[np.log(self.variance)], np.log(self.lengthscales), [np.log(self.alpha)]]
        )

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        expected = 2 + self.lengthscales.shape[0]
        if value.shape != (expected,):
            raise ValueError(
                f"theta must have shape ({expected},), got {value.shape}"
            )
        self.variance = float(np.exp(value[0]))
        self.lengthscales = np.exp(value[1:-1])
        self.alpha = float(np.exp(value[-1]))

    def theta_bounds(self) -> np.ndarray:
        base = super().theta_bounds()
        alpha_bounds = np.array([[np.log(1e-2), np.log(1e2)]], dtype=float)
        return np.vstack([base, alpha_bounds])

    def _g(self, sq: np.ndarray) -> np.ndarray:
        return (1.0 + sq / (2.0 * self.alpha)) ** (-self.alpha)

    def _dg_dsq(self, sq: np.ndarray) -> np.ndarray:
        return -0.5 * (1.0 + sq / (2.0 * self.alpha)) ** (-self.alpha - 1.0)

    def _dg_from_g(self, sq: np.ndarray, g: np.ndarray) -> np.ndarray:
        return -0.5 * g / (1.0 + sq / (2.0 * self.alpha))

    def _shape_key(self) -> bytes:
        return np.float64(self.alpha).tobytes()

    def _extra_gradients(self, sq: np.ndarray) -> list[np.ndarray]:
        # reuses the scaled squared distances the base class just computed
        s = 1.0 + sq / (2.0 * self.alpha)
        # dK/d(alpha) = v * s^{-alpha} * (-log s + sq / (2 alpha s))
        dk_dalpha = (
            self.variance
            * s ** (-self.alpha)
            * (-np.log(s) + sq / (2.0 * self.alpha * s))
        )
        return [self.alpha * dk_dalpha]  # chain rule to log alpha


class WhiteNoise(Kernel):
    """White-noise kernel ``v * 1[x == x']`` (by index, for training inputs).

    The cross Gram matrix against distinct test points is zero; the diagonal
    carries the noise variance.  Used mainly to build composite kernels in
    tests — the GP model itself carries an explicit noise term.
    """

    def __init__(self, variance: float = 1.0) -> None:
        if variance <= 0:
            raise ValueError(f"variance must be positive, got {variance}")
        self.variance = float(variance)

    @property
    def theta(self) -> np.ndarray:
        return np.array([np.log(self.variance)], dtype=float)

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        if value.shape != (1,):
            raise ValueError(f"theta must have shape (1,), got {value.shape}")
        self.variance = float(np.exp(value[0]))

    def theta_bounds(self) -> np.ndarray:
        return np.array([[np.log(1e-9), np.log(1e3)]], dtype=float)

    def __call__(self, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
        X = as_matrix(X)
        if Z is None:
            return self.variance * np.eye(X.shape[0])
        Z = as_matrix(Z)
        return np.zeros((X.shape[0], Z.shape[0]))

    def diag(self, X: np.ndarray) -> np.ndarray:
        X = as_matrix(X)
        return np.full(X.shape[0], self.variance)

    def gradients(self, X: np.ndarray) -> list[np.ndarray]:
        X = as_matrix(X)
        return [self.variance * np.eye(X.shape[0])]
