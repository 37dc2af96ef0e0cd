"""Batched multi-weight acquisition proposal — the pBO inner loop.

Run naively, each pBO weight ``w_i`` performs its own DIRECT-L + COBYLA
search and every candidate costs one GP posterior evaluation.  But all
weights share the same posterior: only the reweighting ``(1 − w) μ − w σ``
(Eq. 9) differs.  :func:`propose_batch` therefore drives all ``n_b``
searches in lockstep — each round gathers the pending candidate batch of
every live search coroutine (DIRECT divisions globally, COBYLA
simplices/trust-region steps locally), scores the union with ONE
``gp.predict`` through
:meth:`~repro.acquisition.functions.MultiWeightAcquisition.evaluate_segments`,
and hands each search its reweighted slice.  Best-so-far tracking over a
slice is a vectorized ``argmin`` whose first-minimum tie rule matches the
point-at-a-time "first strictly better" update exactly.

Lockstep driving needs both stages to expose the ``search`` coroutine
protocol, so the optimizer factory must build the paper's DIRECT-L +
COBYLA stack (:func:`~repro.acquisition.optimize.default_acquisition_optimizer`
with any budgets); any other stack raises ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acquisition.functions import MultiWeightAcquisition
from repro.acquisition.optimize import default_acquisition_optimizer
from repro.gp.surrogate import SurrogateModel
from repro.optim.cobyla import Cobyla
from repro.optim.direct import Direct
from repro.optim.multistart import GlobalLocalOptimizer
from repro.utils.contracts import shape_contract
from repro.utils.validation import check_bounds


@dataclass
class BatchProposal:
    """One pBO batch: a proposed point per weight plus evaluation counts."""

    X: np.ndarray  # (n_weights, dim)
    n_evaluations: int


@dataclass
class _WeightSearch:
    """Bookkeeping for one weight's search coroutine (global or local)."""

    index: int
    weight: float
    engine: object
    points: np.ndarray | None = None
    done: bool = False
    n_evaluations: int = 0
    best_f: float = field(default=np.inf)
    best_x: np.ndarray | None = None


def _drive_lockstep(
    acquisition: MultiWeightAcquisition,
    searches: list[_WeightSearch],
    to_domain=None,
) -> None:
    """Drive live coroutines to completion, one posterior per round.

    Each round stacks every live search's pending candidate batch into a
    union, maps it to the objective domain (``to_domain``, for coroutines
    that emit unit-cube points), scores the union segments under their
    weights with a single shared ``gp.predict``, updates per-search
    best-so-far state, and sends each coroutine its value slice.
    """
    while True:
        live = [s for s in searches if not s.done]
        if not live:
            break
        union = np.vstack([s.points for s in live])
        if to_domain is not None:
            union = to_domain(union)
        segments = [(s.index, s.points.shape[0]) for s in live]
        sliced = acquisition.evaluate_segments(union, segments)
        offset = 0
        for search, values in zip(live, sliced):
            m = search.points.shape[0]
            search.n_evaluations += m
            j = int(np.argmin(values))
            value = float(values[j])
            if value < search.best_f:
                search.best_f = value
                search.best_x = union[offset + j].copy()
            offset += m
            try:
                search.points = search.engine.send(values)
            except StopIteration:
                search.done = True
                search.points = None


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
    then the local refinements run in lockstep, sharing one posterior
    evaluation per candidate union; each weight's result equals what its
    stack's own ``minimize`` returns on Eq. 9 for that weight.
    """
    lower, upper = check_bounds(bounds)
    dim = lower.shape[0]
    weights = np.asarray(weights, dtype=float).ravel()
    factory = optimizer_factory or default_acquisition_optimizer
    stages = [_lockstep_stages(factory(dim)) for _ in weights]

    span = upper - lower
    acquisition = MultiWeightAcquisition(gp, weights)

    # phase 1: global DIRECT coroutines over the unit cube, in lockstep
    searches = [
        _WeightSearch(index=i, weight=float(w), engine=direct.search(dim))
        for i, (w, (direct, _, _)) in enumerate(zip(weights, stages))
    ]
    for search in searches:
        search.points = next(search.engine)
    _drive_lockstep(
        acquisition, searches, to_domain=lambda unit: lower + unit * span
    )

    # phase 2: local refinement inside each global incumbent's basin,
    # exactly as GlobalLocalOptimizer would have done per weight
    local_boxes = []
    for search, (_, _, local_radius) in zip(searches, stages):
        if local_radius is not None:
            radius = local_radius * span
            local_lower = np.maximum(lower, search.best_x - radius)
            local_upper = np.minimum(upper, search.best_x + radius)
        else:
            local_lower, local_upper = lower, upper
        local_boxes.append((local_lower, local_upper))

    refiners = [
        _WeightSearch(
            index=search.index,
            weight=search.weight,
            engine=cobyla.search(lo, hi, x0=search.best_x),
        )
        for search, (_, cobyla, _), (lo, hi) in zip(searches, stages, local_boxes)
    ]
    for refiner in refiners:
        refiner.points = next(refiner.engine)
    _drive_lockstep(acquisition, refiners)

    proposed = []
    total_evals = 0
    for search, refiner in zip(searches, refiners):
        total_evals += search.n_evaluations + refiner.n_evaluations
        if refiner.best_f <= search.best_f:
            proposed.append(np.asarray(refiner.best_x, dtype=float))
        else:
            proposed.append(search.best_x)
    return BatchProposal(X=np.array(proposed), n_evaluations=total_evals)
