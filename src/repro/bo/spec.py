"""Specification handling (paper Eq. 1-2).

The paper folds every check into the canonical form "failure iff
``y(x) < T``" with smaller-is-worse orientation.  Real specs come in both
polarities (quiescent current must stay *below* 12 mA; the paper's
"undershoot < 0.40 V" fails when undershoot is *large*), so
:class:`Specification` performs the orientation flip once, at the boundary,
and everything downstream works in minimization units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Specification:
    """A named pass/fail criterion on a scalar circuit performance.

    Parameters
    ----------
    name:
        Human-readable spec name (e.g. ``"quiescent current"``).
    threshold:
        The spec limit in natural units.
    failure_when:
        ``"above"`` — the circuit fails when the performance exceeds the
        threshold (e.g. quiescent current over 12 mA); ``"below"`` — fails
        when it drops under the threshold.
    units:
        Display units for table rendering.
    """

    name: str
    threshold: float
    failure_when: str = "above"
    units: str = ""

    def __post_init__(self) -> None:
        if self.failure_when not in ("above", "below"):
            raise ValueError(
                f"failure_when must be 'above' or 'below', got {self.failure_when!r}"
            )

    # -- canonical minimization form (Eq. 1: failure iff y < T) -------------

    @property
    def minimization_threshold(self) -> float:
        """The ``T`` of Eq. 1 after orientation folding."""
        return -self.threshold if self.failure_when == "above" else self.threshold

    def to_minimization(self, value):
        """Map a natural-units performance into minimization orientation."""
        value = np.asarray(value, dtype=float)
        out = -value if self.failure_when == "above" else value
        return float(out) if out.ndim == 0 else out

    def from_minimization(self, value):
        """Inverse of :meth:`to_minimization` (it is an involution)."""
        return self.to_minimization(value)

    def is_failure(self, value) -> np.ndarray | bool:
        """Pass/fail of a natural-units performance value."""
        value = np.asarray(value, dtype=float)
        out = value > self.threshold if self.failure_when == "above" else value < self.threshold
        return bool(out) if out.ndim == 0 else out

    def format_value(self, minimized_value: float) -> str:
        """Render a minimization-orientation value back in natural units."""
        natural = self.from_minimization(minimized_value)
        return f"{natural:.4g}{self.units}"
