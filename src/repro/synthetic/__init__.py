"""Synthetic objectives (paper Eq. 10 and embedded-subspace test functions)."""

from repro.synthetic.functions import (
    EmbeddedFunction,
    RareFailureFunction,
    random_orthonormal,
    sphere,
    ysyn,
)

__all__ = [
    "ysyn",
    "sphere",
    "random_orthonormal",
    "EmbeddedFunction",
    "RareFailureFunction",
]
