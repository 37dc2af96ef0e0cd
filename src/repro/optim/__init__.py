"""Derivative-free optimizers (paper Sections 3 and 5.1).

``Direct`` (DIRECT / DIRECT-L) and ``Cobyla`` mirror the paper's NLopt
back-ends; ``GlobalLocalOptimizer`` composes them into the DIRECT_L +
COBYLA acquisition search of Section 5.1.
"""

from repro.optim.base import CountingObjective, Objective, Optimizer
from repro.optim.cobyla import Cobyla
from repro.optim.direct import Direct
from repro.optim.multistart import GlobalLocalOptimizer
from repro.optim.result import OptimizationResult

__all__ = [
    "Objective",
    "Optimizer",
    "CountingObjective",
    "OptimizationResult",
    "Direct",
    "Cobyla",
    "GlobalLocalOptimizer",
]
