"""Batched multi-weight acquisition proposal — the pBO inner loop.

Run naively, each pBO weight ``w_i`` performs its own DIRECT-L + COBYLA
search and every candidate costs one GP posterior evaluation.  But all
weights share the same posterior: only the reweighting ``(1 − w) μ − w σ``
(Eq. 9) differs.  :func:`propose_batch` therefore runs the ``n_b`` searches
as the rows of one array program — :func:`~repro.optim.direct.direct_rows`
for the global stage, :func:`~repro.optim.cobyla.cobyla_rows` for the
local one — and each lockstep round scores the union of every live row's
candidates with ONE ``gp.predict`` through
:meth:`~repro.acquisition.functions.MultiWeightAcquisition.evaluate_segments`.
Each row's result equals what its stack's own ``minimize`` returns.

The optimizer factory must build the paper's DIRECT-L + COBYLA stack
(:func:`~repro.acquisition.optimize.default_acquisition_optimizer` with any
budgets); any other stack raises ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acquisition.functions import MultiWeightAcquisition
from repro.acquisition.optimize import default_acquisition_optimizer
from repro.gp.surrogate import SurrogateModel
from repro.optim.cobyla import Cobyla, cobyla_rows
from repro.optim.direct import Direct, direct_rows
from repro.optim.multistart import GlobalLocalOptimizer
from repro.utils.contracts import shape_contract
from repro.utils.validation import check_bounds


@dataclass
class BatchProposal:
    """One pBO batch: a proposed point per weight plus evaluation counts."""

    X: np.ndarray  # (n_weights, dim)
    n_evaluations: int


def _lockstep_stages(stack: object) -> tuple[Direct, Cobyla, float | None]:
    """``stack``'s DIRECT and COBYLA stages and local radius, or ``TypeError``."""
    if isinstance(stack, GlobalLocalOptimizer):
        global_stage, local_stage = stack.global_optimizer, stack.local_optimizer
        if isinstance(global_stage, Direct) and isinstance(local_stage, Cobyla):
            return global_stage, local_stage, stack.local_radius
        built = f"{type(global_stage).__name__} + {type(local_stage).__name__}"
    else:
        built = type(stack).__name__
    raise TypeError(
        "propose_batch needs GlobalLocalOptimizer(Direct, Cobyla) stacks "
        f"(see default_acquisition_optimizer); the optimizer factory built {built}"
    )


@shape_contract("weights: a(n_w,), bounds: a(d, 2) | a(2, d)")
def propose_batch(
    gp: SurrogateModel,
    weights,
    bounds,
    optimizer_factory=None,
) -> BatchProposal:
    """Propose one point per pBO weight over the box ``bounds``.

    ``optimizer_factory(dim)`` (default
    :func:`~repro.acquisition.optimize.default_acquisition_optimizer`)
    builds one DIRECT + COBYLA stack per weight.  The global searches and
    then the local refinements run as rows of one array search, sharing one
    posterior evaluation per candidate union; each weight's result equals
    what its stack's own ``minimize`` returns on Eq. 9 for that weight.
    """
    lower, upper = check_bounds(bounds)
    dim = lower.shape[0]
    weights = np.asarray(weights, dtype=float).ravel()
    factory = optimizer_factory or default_acquisition_optimizer
    stages = [_lockstep_stages(factory(dim)) for _ in weights]
    score = MultiWeightAcquisition(gp, weights).evaluate_segments

    coarse = direct_rows([direct for direct, _, _ in stages], lower, upper, score)

    # local refinement inside each global incumbent's basin, exactly as
    # GlobalLocalOptimizer would have done per weight
    local_lower = np.tile(lower, (weights.shape[0], 1))
    local_upper = np.tile(upper, (weights.shape[0], 1))
    span = upper - lower
    for i, (_, _, local_radius) in enumerate(stages):
        if local_radius is not None:
            radius = local_radius * span
            local_lower[i] = np.maximum(lower, coarse.x[i] - radius)
            local_upper[i] = np.minimum(upper, coarse.x[i] + radius)
    fine = cobyla_rows(
        [cobyla for _, cobyla, _ in stages], local_lower, local_upper, coarse.x, score
    )

    refined = fine.fun <= coarse.fun
    return BatchProposal(
        X=np.where(refined[:, None], fine.x, coarse.x),
        n_evaluations=int(coarse.n_evaluations.sum() + fine.n_evaluations.sum()),
    )
