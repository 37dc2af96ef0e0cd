"""Input validation helpers used at public API boundaries.

The library deals almost exclusively in float arrays of shape ``(n, dim)``
(sample batches) and ``(n,)`` (labels).  These helpers normalize user input
to those shapes with clear error messages instead of letting shape bugs
surface deep inside linear algebra.
"""

from __future__ import annotations

import numpy as np

from repro._typing import ArrayLike, FloatArray


def as_float_array(x: ArrayLike, name: str = "x") -> FloatArray:
    """Convert ``x`` to a float64 ndarray, rejecting NaN/inf."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def as_matrix(
    x: ArrayLike, dim: int | None = None, name: str = "X"
) -> FloatArray:
    """Normalize ``x`` to shape ``(n, dim)``.

    A 1-D vector is promoted to a single row.  If ``dim`` is given the
    trailing dimension must match it.
    """
    arr = as_float_array(x, name)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(
            f"{name} has {arr.shape[1]} columns, expected {dim}"
        )
    return arr


def as_vector(
    y: ArrayLike, length: int | None = None, name: str = "y"
) -> FloatArray:
    """Normalize ``y`` to shape ``(n,)``, squeezing a trailing unit axis."""
    arr = as_float_array(y, name)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim == 0:
        arr = arr[None]
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {length}")
    return arr


def check_bounds(
    bounds: ArrayLike, dim: int | None = None
) -> tuple[FloatArray, FloatArray]:
    """Validate box bounds and return ``(lower, upper)`` float arrays.

    Accepts only a ``(dim, 2)`` array-like of per-coordinate ``(lo, hi)``
    rows; a ``(lower, upper)`` pair of vectors is rejected, since at
    ``dim == 2`` it would read as two rows.
    """
    arr = np.asarray(bounds, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(
            f"bounds must have shape (dim, 2), one (lo, hi) row per "
            f"coordinate; got shape {arr.shape}"
        )
    lower, upper = arr[:, 0], arr[:, 1]
    if dim is not None and lower.shape[0] != dim:
        raise ValueError(f"bounds cover {lower.shape[0]} dims, expected {dim}")
    if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
        raise ValueError("bounds must be finite")
    if np.any(lower >= upper):
        bad = int(np.argmax(lower >= upper))
        raise ValueError(
            f"lower bound must be < upper bound in every coordinate "
            f"(violated at index {bad}: {lower[bad]} >= {upper[bad]})"
        )
    return lower.copy(), upper.copy()


def unit_cube_bounds(dim: int) -> FloatArray:
    """Return the ``[-1, 1]^dim`` bounds array used for variation spaces."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return np.column_stack([-np.ones(dim), np.ones(dim)])
