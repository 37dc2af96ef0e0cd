"""Fault-tolerant evaluation runtime: objectives, broker, cache, ledger.

Public surface of the evaluation layer described in DESIGN.md §10:

* :class:`Objective` / :class:`FunctionObjective` — the unified objective
  protocol every engine and sampler consumes;
* :class:`EvaluationBroker` / :class:`BrokerConfig` /
  :class:`RuntimePolicy` — dispatch, retry and timeout;
  ``evaluate_batch`` returns the value of every submitted row, or raises
  :class:`EvaluationError` for a point whose retries ran out;
* :class:`ResultCache` / :func:`point_digest` — content-addressed
  deduplication of simulations;
* :class:`RunLedger` / :func:`read_ledger` — JSONL event log doubling as
  the campaign checkpoint: a killed campaign resumes from
  ``cache.preload(read_ledger(path).completed)`` plus a :class:`RunLedger`
  on the same path;
* :class:`FaultPlan` / :class:`FaultInjectingObjective` — deterministic
  fault injection for testing the above.
"""

from repro.runtime.broker import (
    BrokerConfig,
    BrokerStats,
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
    FaultPlan,
    TransientSimulationError,
)
from repro.runtime.ledger import LEDGER_VERSION, LedgerReplay, RunLedger, read_ledger
from repro.runtime.objective import (
    FunctionObjective,
    Objective,
    require_objective,
    resolve_bounds,
    stable_callable_name,
)

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


__all__ = [
    "DEFAULT_DECIMALS",
    "LEDGER_VERSION",
    "BrokerConfig",
    "BrokerStats",
    "EvaluationBroker",
    "EvaluationError",
    "Divergence",
    "FaultInjectingObjective",
    "FaultPlan",
    "FunctionObjective",
    "LedgerReplay",
    "NonFiniteResultError",
    "Objective",
    "REPLAY_MODES",
    "ReplayReport",
    "ResultCache",
    "batch_digests",
    "RunLedger",
    "RuntimePolicy",
    "TransientSimulationError",
    "make_broker",
    "point_digest",
    "read_ledger",
    "require_objective",
    "resolve_bounds",
    "stable_callable_name",
    "truncate_mid_run",
    "verify_replay",
]
