"""Derivative-free optimizers (paper Sections 3 and 5.1).

``Direct`` (DIRECT-L) and ``Cobyla`` mirror the paper's NLopt back-ends;
``GlobalLocalOptimizer`` composes them into the DIRECT_L + COBYLA
acquisition search of Section 5.1.  ``direct_rows`` and ``cobyla_rows`` run
many searches as one array program (the pBO proposal's weights).
"""

from repro.optim.base import CountingObjective, Objective, Optimizer
from repro.optim.cobyla import Cobyla, cobyla_rows
from repro.optim.direct import Direct, direct_rows
from repro.optim.multistart import GlobalLocalOptimizer
from repro.optim.result import OptimizationResult, RowOutcome

__all__ = [
    "Objective",
    "Optimizer",
    "CountingObjective",
    "OptimizationResult",
    "RowOutcome",
    "Direct",
    "Cobyla",
    "GlobalLocalOptimizer",
    "direct_rows",
    "cobyla_rows",
]
