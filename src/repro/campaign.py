"""The consolidated entry point for running a failure-detection campaign.

Everything a campaign needs — the objective, an engine, runtime wiring and
observability — meets in one documented place::

    from repro.bo import RemboBO, RunSpec
    from repro.campaign import Campaign
    from repro.runtime import RuntimePolicy
    from repro.telemetry import TelemetryConfig

    with RuntimePolicy.shared(ledger_path="runs/uvlo.jsonl") as policy:
        campaign = Campaign(
            objective=testbench.objective("vth_plus"),
            engine=RemboBO(batch_size=19, seed=7),
            policy=policy,
            telemetry=TelemetryConfig(trace_path="runs/uvlo.trace.jsonl"),
            seed=7,
        )
        outcome = campaign.run(RunSpec(n_init=20, n_batches=10, threshold=T))
    outcome.run.summarize(T)          # table row
    outcome.metrics["counters"]       # broker counters
    # per-phase breakdown: python -m repro.telemetry.report runs/uvlo.trace.jsonl

The same wiring is expressed declaratively by :class:`CampaignSpec` — a
keyword-only, validated description of one campaign that both
:class:`Campaign` and the ``repro.serve`` scheduler consume through the
single :func:`run_campaign_spec` code path.  ``Campaign`` is a thin
convenience wrapper over a spec; the scheduler submits specs directly.
The surrogate model belongs to the run, not to the wiring:
``RunSpec(surrogate={"kind": "sparse", "m": 256})`` is the one place a
campaign chooses it.

The run opens the root ``campaign`` span (every engine span nests under
it), materializes/owns the telemetry lifecycle when handed a
:class:`~repro.telemetry.TelemetryConfig`, and re-seeds the engine per run
so repeated ``run()`` calls of one campaign are independent replicas of
the same seeded experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Union

from repro.bo.engine import EngineProtocol, RunSpec
from repro.bo.records import RunResult
from repro.runtime.broker import RuntimePolicy
from repro.runtime.objective import Objective, require_objective
from repro.telemetry.config import (
    Telemetry,
    TelemetryConfig,
    TelemetryLike,
    resolve_telemetry,
)
from repro.utils.rng import SeedLike

#: An engine instance, or a zero-argument factory producing a fresh one.
#: Factories matter to the scheduler: resubmitting or resuming a spec must
#: never reuse a solver whose internal state an earlier run advanced.
EngineLike = Union[EngineProtocol, Callable[[], EngineProtocol]]


@dataclass
class CampaignResult:
    """One campaign run: the evaluation log plus its observability artifacts."""

    run: RunResult
    spec: RunSpec
    metrics: dict[str, Any] = field(default_factory=dict)
    trace_path: Path | None = None
    ledger_path: Path | None = None
    name: str = "campaign"

    @property
    def method(self) -> str:
        return self.run.method


@dataclass(frozen=True, kw_only=True)
class CampaignSpec:
    """A validated, declarative description of one campaign.

    One spec object drives both entry points: ``Campaign(...)`` wraps one
    for interactive use, and the ``repro.serve`` scheduler accepts a list
    of them as jobs.  All fields are keyword-only; validation happens in
    ``__post_init__`` so a malformed spec fails at construction, not
    mid-queue.

    Parameters
    ----------
    objective:
        An :class:`~repro.runtime.objective.Objective` (wrap plain
        callables with :class:`~repro.runtime.objective.FunctionObjective`).
    engine:
        An :class:`~repro.bo.engine.EngineProtocol` instance, or a
        zero-argument factory returning a fresh one.  Prefer factories
        when submitting to the scheduler: each (re)run then gets a
        pristine engine.
    run_spec:
        The :class:`~repro.bo.engine.RunSpec` the engine solves under.
    policy:
        Optional shared :class:`~repro.runtime.broker.RuntimePolicy`
        (cache / ledger / retries).  The scheduler overrides this
        per job with its shared-cache policy.
    telemetry:
        ``None`` (off), a :class:`~repro.telemetry.TelemetryConfig`
        (materialized fresh and closed per run), or a live
        :class:`~repro.telemetry.Telemetry` the caller owns.
    seed:
        When given, each run re-seeds the engine with this value, making
        repeated runs bitwise-identical replicas; when None the engine's
        own constructor seed advances across runs.
    name:
        Identifies the campaign in ledgers, spans and scheduler results.
        Must be non-empty and filesystem-safe (no path separators) —
        the scheduler derives per-campaign artifact filenames from it.
    priority:
        Scheduler queue priority; higher runs first.  Ignored by
        :class:`Campaign`.
    """

    objective: Objective
    engine: EngineLike
    run_spec: RunSpec = field(default_factory=RunSpec)
    policy: RuntimePolicy | None = None
    telemetry: TelemetryLike = None
    seed: SeedLike = None
    name: str = "campaign"
    priority: int = 0

    def __post_init__(self) -> None:
        require_objective(self.objective, "CampaignSpec")
        if not isinstance(self.engine, EngineProtocol) and not callable(
            self.engine
        ):
            raise TypeError(
                f"engine must implement solve(objective=..., spec=...) or "
                f"be a zero-argument factory, got {type(self.engine).__name__}"
            )
        if not isinstance(self.run_spec, RunSpec):
            raise TypeError(
                f"run_spec must be a RunSpec, got {type(self.run_spec).__name__}"
            )
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("name must be a non-empty string")
        if any(sep in self.name for sep in ("/", "\\", "\x00")):
            raise ValueError(
                f"name {self.name!r} must be filesystem-safe "
                f"(no path separators)"
            )
        if not isinstance(self.priority, int) or isinstance(
            self.priority, bool
        ):
            raise TypeError(
                f"priority must be an int, got {type(self.priority).__name__}"
            )

    def make_engine(self) -> EngineProtocol:
        """A ready-to-solve engine: the instance itself, or a fresh one
        from the factory."""
        if isinstance(self.engine, EngineProtocol):
            return self.engine
        engine = self.engine()
        if not isinstance(engine, EngineProtocol):
            raise TypeError(
                f"engine factory for campaign {self.name!r} returned "
                f"{type(engine).__name__}, which does not implement "
                f"solve(objective=..., spec=...)"
            )
        return engine


def run_campaign_spec(
    cspec: CampaignSpec,
    run_spec: RunSpec | None = None,
    *,
    policy: RuntimePolicy | None = None,
    telemetry: TelemetryLike = None,
) -> CampaignResult:
    """Execute one :class:`CampaignSpec` — the single campaign code path.

    ``run_spec`` / ``policy`` / ``telemetry`` override the spec's own
    fields when given; the scheduler uses this to inject its per-job
    ledger policy (wired to the shared persistent cache) and the shared
    telemetry without rebuilding specs.
    """
    spec = run_spec if run_spec is not None else cspec.run_spec
    pol = policy if policy is not None else cspec.policy
    tele_like = telemetry if telemetry is not None else cspec.telemetry
    engine = cspec.make_engine()

    owns_telemetry = isinstance(tele_like, TelemetryConfig)
    tele: Telemetry = (
        Telemetry.from_config(tele_like)
        if isinstance(tele_like, TelemetryConfig)
        else resolve_telemetry(tele_like)
    )
    try:
        with tele.tracer.span(
            "campaign",
            campaign=cspec.name,
            engine=type(engine).__name__,
            cache_key=cspec.objective.cache_key,
        ) as span:
            result = engine.solve(
                objective=cspec.objective,
                spec=spec,
                policy=pol,
                telemetry=tele,
                rng=cspec.seed,
            )
            span.set("method", result.method)
            span.set("n_evaluations", result.n_evaluations)
        metrics = tele.snapshot()
        trace_path = getattr(tele.tracer, "path", None)
    finally:
        if owns_telemetry:
            tele.close()

    ledger = pol.ledger if pol is not None else None
    ledger_path = Path(ledger.path) if ledger is not None else None
    return CampaignResult(
        run=result,
        spec=spec,
        metrics=metrics,
        trace_path=trace_path,
        ledger_path=ledger_path,
        name=cspec.name,
    )


class Campaign:
    """Bind an objective to an engine, runtime policy and telemetry.

    A thin wrapper over :class:`CampaignSpec`: construction builds (and
    validates) a spec, :meth:`run` hands it to :func:`run_campaign_spec`.
    The parameters are those of :class:`CampaignSpec` minus ``priority``
    (which only the scheduler consumes).  For engines, the wrapper keeps
    the historical instance-only contract so ``campaign.engine`` is
    always a solver, never a factory.
    """

    def __init__(
        self,
        objective: Objective,
        engine: EngineProtocol,
        *,
        policy: RuntimePolicy | None = None,
        telemetry: TelemetryLike = None,
        seed: SeedLike = None,
        name: str = "campaign",
    ) -> None:
        require_objective(objective, "Campaign")
        if not isinstance(engine, EngineProtocol):
            raise TypeError(
                f"engine must implement solve(objective=..., spec=...), "
                f"got {type(engine).__name__}"
            )
        self.spec = CampaignSpec(
            objective=objective,
            engine=engine,
            policy=policy,
            telemetry=telemetry,
            seed=seed,
            name=name,
        )

    @property
    def objective(self) -> Objective:
        return self.spec.objective

    @property
    def engine(self) -> EngineProtocol:
        return self.spec.make_engine()

    @property
    def policy(self) -> RuntimePolicy | None:
        return self.spec.policy

    @property
    def telemetry(self) -> TelemetryLike:
        return self.spec.telemetry

    @property
    def seed(self) -> SeedLike:
        return self.spec.seed

    def run(self, spec: RunSpec | None = None, **overrides: Any) -> CampaignResult:
        """Execute the engine once under the campaign's wiring.

        ``spec`` defaults to ``RunSpec()``; keyword overrides patch
        individual fields (``campaign.run(n_batches=10, threshold=T)``).
        """
        if spec is None:
            spec = RunSpec(**overrides)
        elif overrides:
            spec = replace(spec, **overrides)
        return run_campaign_spec(self.spec, run_spec=spec)


__all__ = [
    "Campaign",
    "CampaignResult",
    "CampaignSpec",
    "EngineLike",
    "run_campaign_spec",
]
