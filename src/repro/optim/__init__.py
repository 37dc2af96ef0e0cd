"""Derivative-free optimizers (paper Sections 3 and 5.1).

``direct_rows`` (DIRECT-L) and ``cobyla_rows`` (COBYLA) mirror the
paper's NLopt back-ends, each running many searches under one
configuration as one array program;
:func:`repro.bo.propose.acquisition_search` composes them into the
DIRECT_L + COBYLA acquisition search of Section 5.1.
"""

from repro.optim.cobyla import cobyla_rows
from repro.optim.direct import direct_rows
from repro.optim.result import RowOutcome

__all__ = [
    "RowOutcome",
    "direct_rows",
    "cobyla_rows",
]
