"""Bayesian-optimization engines for failure detection (paper Sections 2, 4).

* :class:`SequentialBO` — classic EI/PI/LCB baseline BO in the full space.
* :class:`BatchBO` — the pBO multi-weight batch baseline [5].
* :class:`RemboBO` — the proposed random-embedding batch BO (Algorithm 1).
* :class:`RunSpec` / :class:`EngineProtocol` — the shared keyword-only
  ``solve(objective=..., spec=..., policy=..., telemetry=..., rng=...)``
  entry point; the three engines run one campaign loop
  (:class:`~repro.bo.engine.BOEngine`) and supply only their proposal step.
* :class:`Specification` / :class:`RunResult` — spec folding and run logs.
"""

from repro.bo.batch import BatchBO
from repro.bo.engine import (
    EngineProtocol,
    RunSpec,
    SurrogateManager,
    default_kernel_factory,
    uniform_initial_design,
)
from repro.bo.loop import ACQUISITIONS, SequentialBO
from repro.bo.propose import BatchProposal, propose_batch
from repro.bo.records import FailureSummary, RunRecorder, RunResult
from repro.bo.rembo import RemboBO
from repro.bo.spec import Specification

__all__ = [
    "SequentialBO",
    "BatchBO",
    "RemboBO",
    "RunSpec",
    "EngineProtocol",
    "Specification",
    "RunResult",
    "RunRecorder",
    "FailureSummary",
    "SurrogateManager",
    "propose_batch",
    "BatchProposal",
    "uniform_initial_design",
    "default_kernel_factory",
    "ACQUISITIONS",
]
