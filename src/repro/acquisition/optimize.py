"""Acquisition optimization glue (paper Section 5.1).

The paper optimizes each acquisition with DIRECT_L for global search plus
COBYLA for local refinement; :func:`default_acquisition_optimizer` builds
that composition from our from-scratch implementations, with evaluation
budgets that scale mildly with dimension (Section 3: forcing completion of
a high-dimensional acquisition search means capping its evaluations).
"""

from __future__ import annotations

import numpy as np

from repro._typing import ArrayLike
from repro.acquisition.base import AcquisitionFunction
from repro.optim.base import Optimizer
from repro.optim.cobyla import Cobyla
from repro.optim.direct import Direct
from repro.optim.multistart import GlobalLocalOptimizer
from repro.optim.result import OptimizationResult
from repro.utils.contracts import shape_contract
from repro.utils.validation import check_bounds


#: Default acquisition evaluation caps.  Deliberately *independent* of the
#: search dimension: Section 3 notes that in practice the number of
#: acquisition evaluations must be capped "to force the completion" of each
#: sequential step, and that a fixed cap which is generous in a low-d
#: embedded space is starvation in the full D-dimensional space — the very
#: asymmetry the proposed method exploits.
DEFAULT_GLOBAL_BUDGET = 400
DEFAULT_LOCAL_BUDGET = 150


#: The local stage refines inside the global incumbent's basin only: a box
#: of this half-width (fraction of each side) around the DIRECT-L result.
DEFAULT_LOCAL_RADIUS = 0.1


def default_acquisition_optimizer(
    dim: int,
    global_budget: int | None = None,
    local_budget: int | None = None,
    local_radius: float | None = DEFAULT_LOCAL_RADIUS,
) -> Optimizer:
    """The paper's DIRECT-L + COBYLA stack with fixed evaluation caps."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if global_budget is None:
        global_budget = DEFAULT_GLOBAL_BUDGET
    if local_budget is None:
        local_budget = DEFAULT_LOCAL_BUDGET
    return GlobalLocalOptimizer(
        Direct(max_evaluations=global_budget),
        Cobyla(max_evaluations=local_budget, rho_begin=0.25),
        local_radius=local_radius,
    )


@shape_contract("bounds: a(d, 2) | a(2, d)")
def optimize_acquisition(
    acquisition: AcquisitionFunction,
    bounds: ArrayLike,
    optimizer: Optimizer | None = None,
) -> OptimizationResult:
    """Return ``argmin α(x)`` over the box ``bounds``.

    The result's ``n_evaluations`` counts *acquisition* evaluations — this
    is the quantity whose growth with dimension motivates the paper's
    dimension reduction (Fig. 2).
    """
    lower, upper = check_bounds(bounds)
    if optimizer is None:
        optimizer = default_acquisition_optimizer(lower.shape[0])
    return optimizer.minimize(acquisition, np.column_stack([lower, upper]))
