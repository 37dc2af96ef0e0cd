"""Fault-tolerant evaluation runtime: objectives, broker, cache, ledger.

Public surface of the evaluation layer described in DESIGN.md §10:

* :class:`Objective` / :class:`FunctionObjective` — the unified objective
  protocol every engine and sampler consumes;
* :class:`EvaluationBroker` / :class:`BrokerConfig` /
  :class:`RuntimePolicy` — dispatch, retry, timeout and failure policy;
* :class:`ResultCache` / :func:`point_digest` — content-addressed
  deduplication of simulations;
* :class:`RunLedger` / :func:`read_ledger` / :func:`resume` — JSONL event
  log doubling as the campaign checkpoint;
* :class:`FaultPlan` / :class:`FaultInjectingTestbench` — deterministic
  fault injection for testing the above.
"""

from repro.runtime.broker import (
    FAILURE_POLICIES,
    BrokerConfig,
    BrokerStats,
    EvalBatch,
    EvaluationBroker,
    EvaluationError,
    NonFiniteResultError,
    RuntimePolicy,
    make_broker,
)
from repro.runtime.cache import (
    DEFAULT_DECIMALS,
    ResultCache,
    batch_digests,
    point_digest,
)
from repro.runtime.faults import (
    FaultInjectingObjective,
    FaultInjectingTestbench,
    FaultPlan,
    TransientSimulationError,
)
from repro.runtime.ledger import LEDGER_VERSION, LedgerReplay, RunLedger, read_ledger

#: Replay-verifier names resolved lazily so ``python -m repro.runtime.replay``
#: does not import the module twice (once here, once as ``__main__``).
_REPLAY_EXPORTS = frozenset(
    {
        "REPLAY_MODES",
        "Divergence",
        "ReplayReport",
        "truncate_mid_run",
        "verify_replay",
    }
)


def __getattr__(name: str):
    if name in _REPLAY_EXPORTS:
        from repro.runtime import replay

        return getattr(replay, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
from repro.runtime.objective import (
    FunctionObjective,
    Objective,
    require_objective,
    resolve_bounds,
    stable_callable_name,
)
from repro.runtime.resume import ResumeState, resume

__all__ = [
    "DEFAULT_DECIMALS",
    "FAILURE_POLICIES",
    "LEDGER_VERSION",
    "BrokerConfig",
    "BrokerStats",
    "EvalBatch",
    "EvaluationBroker",
    "EvaluationError",
    "Divergence",
    "FaultInjectingObjective",
    "FaultInjectingTestbench",
    "FaultPlan",
    "FunctionObjective",
    "LedgerReplay",
    "NonFiniteResultError",
    "Objective",
    "REPLAY_MODES",
    "ReplayReport",
    "ResultCache",
    "batch_digests",
    "ResumeState",
    "RunLedger",
    "RuntimePolicy",
    "TransientSimulationError",
    "make_broker",
    "point_digest",
    "read_ledger",
    "require_objective",
    "resolve_bounds",
    "resume",
    "stable_callable_name",
    "truncate_mid_run",
    "verify_replay",
]
