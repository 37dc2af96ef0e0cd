"""Synthetic objectives with controllable effective dimensionality.

``ysyn`` is the paper's Eq. 10 test function for the Fig. 2 optimizer
scaling study.  ``EmbeddedFunction`` plants a low-dimensional function
inside a high-dimensional box through an orthonormal basis — the exact
structure the random-embedding theory (Section 4.1) assumes — and
``RareFailureFunction`` adds a narrow failure pocket so the full failure-
detection pipeline can be validated quickly in tests.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import as_float_array


def ysyn(c: np.ndarray) -> Callable[[np.ndarray], float]:
    """The paper's Eq. 10: ``y_syn(x) = ‖x − c‖₂ / ‖c‖₂``.

    A smooth convex bowl centred at ``c``; used to measure how many
    function evaluations DIRECT-L and COBYLA need per optimization as the
    dimension grows (Fig. 2).
    """
    c = as_float_array(c, "c")
    norm_c = float(np.linalg.norm(c))
    if norm_c == 0:
        raise ValueError("c must be non-zero (the paper normalizes by ||c||)")

    def fun(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(x - c) / norm_c)

    return fun


def sphere(v: np.ndarray) -> float:
    """``Σ v_i²`` with minimum 0 at the origin."""
    v = np.asarray(v, dtype=float)
    return float(np.sum(v**2))


def random_orthonormal(D: int, d: int, seed: SeedLike = None) -> np.ndarray:
    """A ``D×d`` matrix with orthonormal columns (QR of a Gaussian)."""
    if not 1 <= d <= D:
        raise ValueError(f"need 1 <= d <= D, got d={d}, D={D}")
    rng = as_generator(seed)
    Q, R = np.linalg.qr(rng.standard_normal((D, d)))
    # fix the sign convention so the basis is deterministic given the draw
    return Q * np.sign(np.diag(R))


class EmbeddedFunction:
    """A ``D``-dimensional function with an exact ``d_e``-dim effective subspace.

    ``y(x) = g(s · Bᵀ x)`` where ``B`` has orthonormal columns: any
    variation orthogonal to ``span(B)`` leaves ``y`` unchanged, which is the
    paper's definition of effective dimensionality (Section 4.1).

    Parameters
    ----------
    inner:
        The low-dimensional function ``g``.
    total_dim / effective_dim:
        ``D`` and ``d_e``.
    scale:
        Stretch applied to the projected coordinates before calling ``g``
        (lets bounded boxes reach interesting regions of ``g``).
    """

    def __init__(
        self,
        inner: Callable[[np.ndarray], float],
        total_dim: int,
        effective_dim: int,
        scale: float = 1.0,
        seed: SeedLike = None,
    ) -> None:
        self.inner = inner
        self.total_dim = int(total_dim)
        self.effective_dim = int(effective_dim)
        self.scale = float(scale)
        self.basis = random_orthonormal(total_dim, effective_dim, seed=seed)

    def project(self, x: np.ndarray) -> np.ndarray:
        """The effective coordinates ``v = s · Bᵀ x``."""
        x = np.asarray(x, dtype=float)
        return self.scale * (x @ self.basis)

    def __call__(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.total_dim:
            raise ValueError(
                f"expected {self.total_dim} coordinates, got {x.shape[-1]}"
            )
        return float(self.inner(self.project(x)))


class RareFailureFunction:
    """A smooth landscape with one narrow low-value pocket (rare failure).

    ``y(x) = base(v) − depth · exp(−‖v − v*‖² / (2 radius²))`` on the
    effective coordinates ``v = Bᵀ x``.  Away from the pocket the function
    is a gentle bowl whose minimum stays above the failure threshold, so
    uniform sampling essentially never fails; inside the pocket the value
    drops below the threshold.  The pocket centre ``v*`` is placed at a
    controlled fraction of the reachable projected radius.

    This is the unit-test stand-in for the circuits: it has exactly the
    two properties (low effective dimension, rare sharp failure) the
    paper's evaluation relies on.
    """

    def __init__(
        self,
        total_dim: int,
        effective_dim: int,
        threshold: float = -1.0,
        depth: float = 3.0,
        radius: float = 0.25,
        center_fraction: float = 0.6,
        seed: SeedLike = None,
    ) -> None:
        if not 0 < center_fraction <= 1:
            raise ValueError(
                f"center_fraction must be in (0, 1], got {center_fraction}"
            )
        if depth <= 0 or radius <= 0:
            raise ValueError("depth and radius must be positive")
        rng = as_generator(seed)
        self.total_dim = int(total_dim)
        self.effective_dim = int(effective_dim)
        self.threshold = float(threshold)
        self.depth = float(depth)
        self.radius = float(radius)
        self.basis = random_orthonormal(total_dim, effective_dim, seed=rng)
        # a point of [-1,1]^D projects to ||v|| <= sqrt(d_e) (column norms 1);
        # place the pocket well inside the reachable ball
        direction = rng.standard_normal(effective_dim)
        direction /= np.linalg.norm(direction)
        self.center = center_fraction * np.sqrt(effective_dim) * direction

    def effective_value(self, v: np.ndarray) -> float:
        """The landscape on the effective coordinates."""
        v = np.asarray(v, dtype=float)
        base = 0.5 * float(np.sum(v**2)) / self.effective_dim
        dist_sq = float(np.sum((v - self.center) ** 2))
        pocket = self.depth * np.exp(-dist_sq / (2.0 * self.radius**2))
        return base - pocket

    def __call__(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.total_dim:
            raise ValueError(
                f"expected {self.total_dim} coordinates, got {x.shape[-1]}"
            )
        return self.effective_value(x @ self.basis)

    @property
    def pocket_x(self) -> np.ndarray:
        """A ``D``-dim point inside the failure pocket (for tests)."""
        return self.basis @ self.center
