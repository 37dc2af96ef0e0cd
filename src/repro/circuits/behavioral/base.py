"""Common infrastructure for behavioral circuit testbenches.

A *testbench* binds a normalized variation space to one or more named
circuit performances with pass/fail specifications.  The variation space
follows the paper's convention (Section 5.1): every process parameter is
normalized so that ``[-1, 1]`` spans its ``±4σ`` range, and the failure
search region Ω is the resulting unit hypercube.

The behavioral testbenches substitute for the paper's proprietary 90 nm
PDK + SPICE setup; see DESIGN.md §2 for the substitution argument.  Each
model is a deterministic closed-form map from the normalized variations to
a performance value, built from circuit-theory sensitivities, with (i) a
low effective dimensionality and (ii) sharply-bounded rare failure regions
— the two properties the paper's evaluation depends on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.bo.spec import Specification
from repro.runtime.objective import FunctionObjective
from repro.utils.contracts import shape_contract
from repro.utils.validation import as_float_array, unit_cube_bounds


@dataclass(frozen=True)
class VariationParameter:
    """One normalized process-variation axis.

    ``sigma`` is the physical standard deviation; a normalized coordinate
    ``u ∈ [-1, 1]`` maps to a physical deviation ``4 σ u`` (±4σ range).
    """

    name: str
    sigma: float
    units: str = ""

    def physical(self, normalized: float) -> float:
        return 4.0 * self.sigma * float(normalized)


class CircuitTestbench(abc.ABC):
    """A circuit with named performances over a normalized variation cube."""

    #: Ordered variation parameters; defines the dimensionality D.
    parameters: tuple[VariationParameter, ...]
    #: Pass/fail criteria keyed by performance name.
    specs: dict[str, Specification]

    @property
    def dim(self) -> int:
        return len(self.parameters)

    @property
    def parameter_names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def bounds(self) -> np.ndarray:
        """The failure search region Ω = [-1, 1]^D."""
        return unit_cube_bounds(self.dim)

    @shape_contract("X: a(n, D) -> (n, D)")
    def _check_batch(self, X) -> np.ndarray:
        X = as_float_array(X, "X")
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(
                f"expected a (n, {self.dim}) variation block, got shape "
                f"{X.shape}"
            )
        if np.any(np.abs(X) > 1.0 + 1e-9):
            raise ValueError("variation coordinates must lie in [-1, 1]")
        return np.clip(X, -1.0, 1.0)

    @shape_contract("X: a(n, D) -> (n,)")
    @abc.abstractmethod
    def performance_batch(self, name: str, X) -> np.ndarray:
        """The named performance (natural units) over a ``(n, D)`` block.

        Each testbench maps the whole block through the same closed-form
        equations over columns, so chunked broker dispatch pays one array
        pipeline per batch instead of per point.
        """

    def objective(self, name: str) -> FunctionObjective:
        """Minimization-orientation objective for the named spec (Eq. 2).

        Each block goes through :meth:`performance_batch` and then
        ``spec.to_minimization``.  The stable ``cache_key`` (testbench
        class + spec name) lets the evaluation runtime cache and
        deduplicate simulations across methods sharing a testbench.
        """
        if name not in self.specs:
            raise KeyError(
                f"unknown spec {name!r}; options: {sorted(self.specs)}"
            )
        spec = self.specs[name]

        def measure(X: np.ndarray) -> np.ndarray:
            return spec.to_minimization(self.performance_batch(name, X))

        return FunctionObjective(
            measure,
            dim=self.dim,
            bounds=self.bounds(),
            cache_key=f"{type(self).__name__}:{name}",
            vectorized=True,
        )

    def threshold(self, name: str) -> float:
        """The minimization threshold ``T`` for the named spec (Eq. 1)."""
        return self.specs[name].minimization_threshold


def soft_step(margin, width: float):
    """A smooth 0→1 switch: ≈0 for margin ≫ 0, ≈1 for margin ≪ 0.

    Models operating-region bifurcations (a bias device dropping out of
    saturation, a mirror collapsing): a sharp but C∞ transition of the
    stated ``width``.  Accepts scalars or arrays.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    z = np.clip(np.asarray(margin, dtype=float) / width, -60.0, 60.0)
    out = 1.0 / (1.0 + np.exp(z))
    return float(out) if out.ndim == 0 else out


def corner_stress(x, onset: float = 0.5):
    """Saturating deep-corner stress response, per normalized coordinate.

    ``g(x) = sign(x) · max(|x| − onset, 0) / (1 − onset)`` — zero inside
    the ``±onset`` band, ramping linearly to ±1 at the ``±4σ`` cube faces.
    Models threshold phenomena of deep process corners (saturation-margin
    loss, junction-leakage onset, mobility degradation): a device
    contributes to an operating-point collapse only once its deviation is
    *large*, and the contribution saturates at the corner.

    This shape is what couples the failure mechanism to the geometry of
    the paper's method: points proposed through a clipped random embedding
    have many coordinates pinned at ±1 (full stress), while center-out
    search in the full-dimensional cube moves a handful of coordinates at
    a time and never accumulates stress.  Accepts scalars or arrays.
    """
    if not 0.0 <= onset < 1.0:
        raise ValueError(f"onset must lie in [0, 1), got {onset}")
    arr = np.asarray(x, dtype=float)
    out = np.sign(arr) * np.maximum(np.abs(arr) - onset, 0.0) / (1.0 - onset)
    return float(out) if out.ndim == 0 else out


def local_halo(margin, width: float):
    """A strictly local degradation halo: 1 for ``margin ≤ 0``, Gaussian
    roll-off ``exp(−margin²/(2 width²))`` for ``margin > 0``.

    Unlike :func:`soft_step`, whose exponential tail leaves a faint but
    *globally monotone* ramp that a surrogate can ratchet along from
    anywhere in the cube, the Gaussian tail is numerically dead a few
    widths out: degradation physics that genuinely switch on only near the
    operating-region boundary.  ``C¹`` at zero (both sides have zero
    slope).  Accepts scalars or arrays.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    m = np.asarray(margin, dtype=float)
    z = np.clip(m / width, 0.0, 60.0)
    out = np.where(m <= 0.0, 1.0, np.exp(-0.5 * z**2))
    return float(out) if out.ndim == 0 else out
