"""The one acquisition search every BO engine runs (paper Section 5.1).

The paper optimizes the acquisition of every BO method the same way:
NLopt's DIRECT_L globally, then COBYLA locally, under one set of
evaluation caps.  :func:`acquisition_search` runs that recipe for
``n_rows`` searches at once, as the rows of two array engines —
:func:`~repro.optim.direct.direct_rows` over the whole box, then
:func:`~repro.optim.cobyla.cobyla_rows` inside each row's incumbent basin —
and keeps the better point per row.  Each lockstep round scores the union
of every live row's candidates with one ``score`` call.

:class:`~repro.bo.loop.SequentialBO` searches one row under its EI/PI/LCB.
The pBO engines search one row per weight: all weights share one
posterior and only the reweighting ``(1 − w) μ − w σ`` (Eq. 9) differs, so
:meth:`~repro.acquisition.functions.MultiWeightAcquisition.evaluate_segments`
scores each round's union with ONE ``gp.predict``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.optim.cobyla import cobyla_rows
from repro.optim.direct import RowObjective, direct_rows
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
#: of this half-width (fraction of each side) around the DIRECT-L result,
#: so a capped search cannot teleport to corners DIRECT-L never justified.
LOCAL_RADIUS = 0.1


def check_budgets(global_budget: int, local_budget: int) -> tuple[int, int]:
    """The acquisition evaluation caps, or ``ValueError``: DIRECT-L needs
    one evaluation, COBYLA two."""
    if global_budget < 1:
        raise ValueError(f"global_budget must be >= 1, got {global_budget}")
    if local_budget < 2:
        raise ValueError(f"local_budget must be >= 2, got {local_budget}")
    return int(global_budget), int(local_budget)


@dataclass
class BatchProposal:
    """One iteration's proposals: a point per search row plus evaluation
    counts."""

    X: np.ndarray  # (n_rows, dim)
    n_evaluations: int


@shape_contract("box: a(d, 2) | a(2, d)")
def acquisition_search(
    score: RowObjective,
    n_rows: int,
    box,
    global_budget: int = DEFAULT_GLOBAL_BUDGET,
    local_budget: int = DEFAULT_LOCAL_BUDGET,
) -> BatchProposal:
    """Minimize ``n_rows`` acquisitions over ``box``: DIRECT-L, then COBYLA.

    ``score(X, segments)`` returns the ``(m,)`` values of the candidate
    union ``X``, whose consecutive blocks belong to the ``(row, length)``
    pairs of ``segments``.  DIRECT-L spends up to ``global_budget``
    evaluations per row over the whole box; COBYLA then spends up to
    ``local_budget`` from each row's incumbent, inside the box of
    half-width :data:`LOCAL_RADIUS` of each side around it.  A row
    proposes COBYLA's point unless it scored worse than DIRECT-L's;
    ``n_evaluations`` counts both stages over every row.
    """
    lower, upper = check_bounds(box)
    coarse = direct_rows(n_rows, lower, upper, score, max_evaluations=global_budget)
    radius = LOCAL_RADIUS * (upper - lower)
    fine = cobyla_rows(
        np.maximum(lower, coarse.x - radius),
        np.minimum(upper, coarse.x + radius),
        coarse.x,
        score,
        max_evaluations=local_budget,
    )
    refined = fine.fun <= coarse.fun
    return BatchProposal(
        X=np.where(refined[:, None], fine.x, coarse.x),
        n_evaluations=int(coarse.n_evaluations.sum() + fine.n_evaluations.sum()),
    )
