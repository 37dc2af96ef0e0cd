"""Bayesian-optimization engines for failure detection (paper Sections 2, 4).

* :class:`SequentialBO` — classic EI/PI/LCB baseline BO in the full space.
* :class:`BatchBO` — the pBO multi-weight batch baseline [5].
* :class:`RemboBO` — the proposed random-embedding batch BO (Algorithm 1).
* :class:`RunSpec` / :class:`Engine` — the one keyword-only
  ``Engine.solve(objective=..., spec=..., policy=..., telemetry=...,
  rng=...)`` every engine runs, the samplers of :mod:`repro.sampling`
  included; the three BO engines run one campaign loop
  (:class:`~repro.bo.engine.BOEngine`) and supply only their proposal step.
* :func:`acquisition_search` — the one DIRECT-L → COBYLA acquisition
  search every proposal step runs, on one row or one row per pBO weight.
* :class:`Specification` / :class:`RunResult` — spec folding and run logs.
"""

from repro.bo.batch import BatchBO
from repro.bo.engine import (
    Engine,
    RunSpec,
    SurrogateManager,
    uniform_initial_design,
)
from repro.bo.loop import ACQUISITIONS, SequentialBO
from repro.bo.propose import BatchProposal, acquisition_search
from repro.bo.records import FailureSummary, RunResult
from repro.bo.rembo import RemboBO
from repro.bo.spec import Specification

__all__ = [
    "SequentialBO",
    "BatchBO",
    "RemboBO",
    "RunSpec",
    "Engine",
    "Specification",
    "RunResult",
    "FailureSummary",
    "SurrogateManager",
    "acquisition_search",
    "BatchProposal",
    "uniform_initial_design",
    "ACQUISITIONS",
]
