"""Random embedding for high-dimensional BO (paper Section 4.1-4.2).

Following Wang et al. [21] as adopted by the paper: a random matrix
``A ∈ R^{D×d}`` with i.i.d. N(0,1) entries embeds a ``d``-dimensional
search box ``Z = [-√d, √d]^d`` into the original space; any point with an
effective subspace of dimension ``d_e ≤ d`` keeps its optimum reachable
through the embedding with probability 1.  Candidates ``z`` map to the
original variation space via ``x = p_Ω(A z)`` (Eq. 11), where ``p_Ω``
clips coordinate-wise onto the hypercube ``Ω``; the reverse map used by
the dimension-selection procedure is the pseudo-inverse ``z = A† x``
(Eq. 12).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from repro._typing import ArrayLike, FloatArray
from repro.utils.contracts import shape_contract
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import as_matrix, check_bounds, unit_cube_bounds


@shape_contract(
    "X: a(n, D) | a(D,), lower: a(D,), upper: a(D,) -> (n, D) | (D,)"
)
def clip_to_box(
    X: ArrayLike, lower: ArrayLike, upper: ArrayLike
) -> FloatArray:
    """The projection ``p_Ω``: coordinate-wise clipping onto a box."""
    return np.clip(np.asarray(X, dtype=float), lower, upper)


class RandomEmbedding:
    """A sampled ``D×d`` Gaussian embedding between ``Z`` and ``Ω``.

    Parameters
    ----------
    original_dim:
        Dimensionality ``D`` of the variation space.
    embedded_dim:
        Embedding dimensionality ``d`` (``1 ≤ d ≤ D``).
    bounds:
        Box ``Ω`` in the original space; defaults to ``[-1, 1]^D`` as in the
        paper's normalized variation space.
    seed:
        Seed or generator used to draw the matrix ``A``.
    """

    def __init__(
        self,
        original_dim: int,
        embedded_dim: int,
        bounds: ArrayLike | None = None,
        seed: SeedLike = None,
    ) -> None:
        if original_dim < 1:
            raise ValueError(f"original_dim must be >= 1, got {original_dim}")
        if not 1 <= embedded_dim <= original_dim:
            raise ValueError(
                f"embedded_dim must lie in [1, {original_dim}], got {embedded_dim}"
            )
        self.original_dim = int(original_dim)
        self.embedded_dim = int(embedded_dim)
        if bounds is None:
            bounds = unit_cube_bounds(self.original_dim)
        self.lower, self.upper = check_bounds(bounds, self.original_dim)
        rng = as_generator(seed)
        self.matrix: FloatArray = rng.standard_normal(
            (self.original_dim, self.embedded_dim)
        )
        self._pinv: FloatArray | None = None

    @property
    def pinv(self) -> FloatArray:
        """The Moore-Penrose pseudo-inverse ``A†`` of Eq. 12, via QR.

        A Gaussian ``A`` has full column rank with probability 1, so
        ``A = QR`` gives ``A† = R⁻¹Qᵀ``.  The textbook normal-equation form
        ``(AᵀA)⁻¹Aᵀ`` squares the condition number of ``A`` and loses half
        the significant digits exactly when an embedding draw comes out
        nearly rank-deficient — the regime where the dimension-selection
        procedure needs the reverse map most.
        """
        if self._pinv is None:
            A = self.matrix
            Q, R = np.linalg.qr(A)
            self._pinv = solve_triangular(R, Q.T, lower=False, check_finite=False)
        return self._pinv

    def z_bounds(self) -> FloatArray:
        """The embedded search box ``[-√d, √d]^d`` of Section 4.2."""
        half = np.sqrt(self.embedded_dim)
        d = self.embedded_dim
        return np.column_stack([-half * np.ones(d), half * np.ones(d)])

    @shape_contract("Z: a(n, d) | a(d,) -> (n, D) | (D,)")
    def to_original(self, Z: ArrayLike) -> FloatArray:
        """Map embedded points to the variation space: ``x = p_Ω(A z)``.

        Accepts a single ``(d,)`` vector or a ``(n, d)`` batch and returns
        the matching shape: :meth:`project` without the clipped fraction.
        """
        return self.project(Z)[0]

    def project(self, Z: ArrayLike) -> tuple[FloatArray, float]:
        """Like :meth:`to_original`, plus the clipped-coordinate fraction.

        The second return is the fraction of coordinates of ``A z`` that
        fell outside ``Ω`` and were moved by ``p_Ω`` — the telemetry
        signal for how hard the embedding is pressing against the box
        (persistently high fractions mean the embedded box ``Z`` maps
        mostly onto faces of ``Ω`` and the effective search space shrinks).
        """
        Z_arr = np.asarray(Z, dtype=float)
        single = Z_arr.ndim == 1
        Z_mat = as_matrix(Z_arr, self.embedded_dim, name="z")
        raw = Z_mat @ self.matrix.T
        X = clip_to_box(raw, self.lower, self.upper)
        clipped = float(np.mean(raw != X)) if raw.size else 0.0
        return (X[0] if single else X), clipped

    @shape_contract("X: a(n, D) | a(D,) -> (n, d) | (d,)")
    def to_embedded(self, X: ArrayLike) -> FloatArray:
        """Map original-space points down via the pseudo-inverse (Eq. 12)."""
        X_arr = np.asarray(X, dtype=float)
        single = X_arr.ndim == 1
        X_mat = as_matrix(X_arr, self.original_dim, name="x")
        Z = X_mat @ self.pinv.T
        return Z[0] if single else Z

    def __repr__(self) -> str:
        return (
            f"RandomEmbedding(D={self.original_dim}, d={self.embedded_dim})"
        )
