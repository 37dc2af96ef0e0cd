"""Netlist-level MNA measurements as runtime objectives.

Each demo factory returns a :class:`~repro.runtime.objective.
FunctionObjective` over a *batch* measure: ``measure(X)`` builds one
netlist per row of an ``(n, D)`` block and measures them together, on the
unit hypercube.  The demo measures solve a chunk's netlists as one stack
(see :mod:`repro.circuits.mna.stack`): every Newton iteration assembles
and solves all live rows at once, and each row's value equals the one it
gets alone, bit for bit.  So the objectives are ``vectorized`` and the
broker hands over whole chunks.  With a
:class:`~repro.bo.spec.Specification`, values are folded through
``spec.to_minimization`` (paper Eq. 2), and the cache key names the fold.

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
from repro.runtime.objective import FunctionObjective
from repro.utils.validation import unit_cube_bounds


def _demo_objective(
    measure: Callable[[np.ndarray], np.ndarray],
    dim: int,
    spec: Specification | None,
    cache_key: str,
) -> FunctionObjective:
    """``measure`` on the unit cube, folded through ``spec`` when given."""

    def fold(X: np.ndarray) -> np.ndarray:
        values = measure(X)
        return values if spec is None else spec.to_minimization(values)

    if spec is not None:
        cache_key = f"{cache_key}:{spec.failure_when}"
    return FunctionObjective(
        fold,
        dim=dim,
        bounds=unit_cube_bounds(dim),
        cache_key=cache_key,
        vectorized=True,
    )


def ldo_demo_objective(
    measure: str = "load_regulation", spec: Specification | None = None
) -> FunctionObjective:
    """The MNA LDO demo's named measure as a cache-addressable objective."""
    from repro.circuits.mna.ldo_demo import LDO_DEMO_DIM, LDO_MEASURES, ldo_demo_measure

    if measure not in LDO_MEASURES:
        raise KeyError(f"LDODemo has no measure {measure!r}")

    def run(X: np.ndarray) -> np.ndarray:
        return ldo_demo_measure(X, measure)

    return _demo_objective(run, LDO_DEMO_DIM, spec, f"LDODemo:{measure}")


def uvlo_demo_objective(spec: Specification | None = None) -> FunctionObjective:
    """``|ΔV_THL|`` of the MNA UVLO demo as a cache-addressable objective."""
    from repro.circuits.mna.uvlo_demo import (
        UVLO_DEMO_DIM,
        uvlo_demo_threshold_offset,
    )

    return _demo_objective(
        uvlo_demo_threshold_offset, UVLO_DEMO_DIM, spec, "UVLODemo:delta_vthl"
    )


__all__ = ["ldo_demo_objective", "uvlo_demo_objective"]
