"""Netlist-level MNA measurements as runtime :class:`Objective` s.

An :class:`MNAObjective` wraps a *batch* measure: ``measure(X)`` builds
one netlist per row of an ``(n, D)`` block and measures them together.
The demo measures solve a chunk's netlists as one stack (see
:mod:`repro.circuits.mna.stack`): every Newton iteration assembles and
solves all live rows at once, and each row's value equals the one it gets
alone, bit for bit.  So ``prefers_batch`` is ``True`` and the broker hands
over whole chunks.

Fault isolation stays per point.  A row that fails every continuation
strategy makes the chunk's call raise :class:`~repro.circuits.mna.dc.
ConvergenceError`; the broker then re-runs that chunk's rows as size-1
chunks in the same round, so only the failing row's outcome is a failure
(DESIGN.md §12).  A per-evaluation timeout still forces size-1 chunks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bo.spec import Specification
from repro.runtime.objective import Objective, stable_callable_name
from repro.utils.validation import as_matrix, unit_cube_bounds


class MNAObjective(Objective):
    """One MNA-measured performance as a cache-addressable objective.

    Parameters
    ----------
    measure:
        Batch callable ``measure(X: (n, dim)) -> (n,)`` returning each
        row's performance in natural units (build netlists, solve,
        measure).
    dim:
        Dimensionality of the normalized variation space (the bounds are
        the unit hypercube, matching the demo benches).
    spec:
        Optional :class:`~repro.bo.spec.Specification`; when given,
        values are mapped through ``spec.to_minimization`` (paper Eq. 2)
        so the objective is in minimization orientation.
    cache_key:
        Stable identity for the result cache/ledger; defaults to the
        measure's qualified name plus ``dim``.
    """

    def __init__(
        self,
        measure: Callable,
        dim: int,
        spec: Specification | None = None,
        cache_key: str | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self._measure = measure
        self._dim = int(dim)
        self._spec = spec
        if cache_key is None:
            name = stable_callable_name(measure)
            suffix = f":{spec.name}" if spec is not None else ""
            cache_key = f"mna.{name}{suffix}[d={self._dim}]"
        self._cache_key = str(cache_key)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def bounds(self) -> np.ndarray:
        return unit_cube_bounds(self._dim)

    @property
    def cache_key(self) -> str:
        return self._cache_key

    @property
    def prefers_batch(self) -> bool:
        """Whole chunks: the measure solves its rows as one stack."""
        return True

    @property
    def threshold(self) -> float | None:
        """Minimization threshold ``T`` when a spec is attached (Eq. 1)."""
        if self._spec is None:
            return None
        return self._spec.minimization_threshold

    def evaluate(self, X) -> np.ndarray:
        X = as_matrix(np.asarray(X, dtype=float), self._dim)
        values = np.asarray(self._measure(X), dtype=float).reshape(X.shape[0])
        if self._spec is None:
            return values
        return np.asarray(
            self._spec.to_minimization(values), dtype=float
        ).reshape(X.shape[0])


def ldo_demo_objective(
    measure: str = "load_regulation", spec: Specification | None = None
) -> MNAObjective:
    """The MNA LDO demo's named measure as an :class:`MNAObjective`."""
    from repro.circuits.mna.ldo_demo import LDO_DEMO_DIM, LDO_MEASURES, ldo_demo_measure

    if measure not in LDO_MEASURES:
        raise KeyError(f"LDODemo has no measure {measure!r}")

    def run(X: np.ndarray) -> np.ndarray:
        return ldo_demo_measure(X, measure)

    return MNAObjective(
        run,
        dim=LDO_DEMO_DIM,
        spec=spec,
        cache_key=f"LDODemo:{measure}",
    )


def uvlo_demo_objective(spec: Specification | None = None) -> MNAObjective:
    """``|ΔV_THL|`` of the MNA UVLO demo as an :class:`MNAObjective`."""
    from repro.circuits.mna.uvlo_demo import (
        UVLO_DEMO_DIM,
        uvlo_demo_threshold_offset,
    )

    return MNAObjective(
        uvlo_demo_threshold_offset,
        dim=UVLO_DEMO_DIM,
        spec=spec,
        cache_key="UVLODemo:delta_vthl",
    )


__all__ = ["MNAObjective", "ldo_demo_objective", "uvlo_demo_objective"]
