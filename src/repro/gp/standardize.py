"""Label standardization for GP training.

Circuit performances arrive in volts, amps or percent; the GP's zero prior
mean and unit-scale kernels expect roughly standardized labels.  The
transform is affine, so failure thresholds map through it exactly.
"""

from __future__ import annotations

import numpy as np

from repro._typing import ArrayLike, FloatArray
from repro.utils.validation import as_vector


class Standardizer:
    """Affine map ``y -> (y - mean) / scale`` fitted on training labels.

    A degenerate (constant) label set falls back to unit scale so that the
    inverse transform stays well-defined.
    """

    def __init__(self) -> None:
        self.mean_: float | None = None
        self.scale_: float | None = None

    @property
    def is_fitted(self) -> bool:
        return self.mean_ is not None

    def fit(self, y: ArrayLike) -> "Standardizer":
        y_arr = as_vector(y)
        if y_arr.shape[0] == 0:
            raise ValueError("cannot fit a standardizer on an empty label set")
        self.mean_ = float(np.mean(y_arr))
        scale = float(np.std(y_arr))
        self.scale_ = scale if scale > 1e-12 else 1.0
        return self

    def transform(self, y: ArrayLike) -> FloatArray:
        mean, scale = self._require_fitted()
        return (as_vector(y) - mean) / scale

    def fit_transform(self, y: ArrayLike) -> FloatArray:
        return self.fit(y).transform(y)

    def inverse_transform(self, y: ArrayLike) -> FloatArray:
        mean, scale = self._require_fitted()
        return as_vector(y) * scale + mean

    def _require_fitted(self) -> tuple[float, float]:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("standardizer has not been fitted")
        return self.mean_, self.scale_
