"""Multi-campaign scheduler over a shared persistent result cache.

The scheduler is deliberately thin glue over machinery earlier PRs
hardened: campaigns run through the single
:func:`~repro.campaign.run_campaign_spec` code path, checkpoint through
their own :class:`~repro.runtime.ledger.RunLedger`, dedup through one
shared :class:`~repro.runtime.cache.ResultCache` (single-flight, so two
campaigns racing on the same design never both simulate it), and resume
by preloading that cache with each ledger's completed evaluations
(``read_ledger(path).completed``) and appending to the same ledger —
which makes a SIGKILL of the whole service recoverable campaign by
campaign, bitwise.

Concurrency model: one :class:`~concurrent.futures.ThreadPoolExecutor`
of ``max_concurrent`` threads drains the jobs.  They are submitted in
priority order (higher ``CampaignSpec.priority`` first, submission order
within a priority), so the pool's FIFO work queue starts them in that
order; engines and brokers are synchronous, thread-safe code, and each
campaign runs whole on one pool thread.

Artifacts live under ``runs_dir``: ``<name>.jsonl`` (ledger),
``<name>.result.json`` (final X/y, written atomically after the run so
its existence certifies completion) and ``cache/`` (the persistent
shard store, unless an external cache is injected).  The cache keeps
every result it stores or loads, so a point one campaign simulated is
never simulated again by another, in this run or a resumed one.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign import CampaignResult, CampaignSpec, run_campaign_spec
from repro.runtime.broker import BrokerConfig, RuntimePolicy
from repro.runtime.cache import ResultCache
from repro.runtime.ledger import RunLedger, read_ledger
from repro.telemetry.config import (
    Telemetry,
    TelemetryConfig,
    TelemetryLike,
    resolve_telemetry,
)


@dataclass
class CampaignOutcome:
    """What happened to one scheduled campaign."""

    name: str
    result: CampaignResult | None = None
    error: str | None = None
    resumed: bool = False
    #: ``--resume`` found the campaign's result file: nothing to re-run.
    already_complete: bool = False
    queue_wait_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    ledger_path: Path | None = None
    result_path: Path | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SchedulerResult:
    """Aggregate of one scheduler drain: outcomes plus shared-state stats."""

    outcomes: list[CampaignOutcome]
    cache_stats: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def n_completed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def duplicate_simulations(self) -> int:
        """Completed simulations whose digest was simulated elsewhere too.

        Counts repeats *across every campaign's ledger*: with the shared
        single-flight cache working, campaigns that evaluate overlapping
        designs produce zero — the second campaign records ``cache_hit``
        events instead of re-simulating.
        """
        seen: set[str] = set()
        duplicates = 0
        for outcome in self.outcomes:
            path = outcome.ledger_path
            if path is None or not Path(path).exists():
                continue
            for event in read_ledger(path).events:
                if event.get("event") != "completed":
                    continue
                digest = str(event["digest"])
                if digest in seen:
                    duplicates += 1
                seen.add(digest)
        return duplicates

    def summary(self) -> str:
        lines = [
            f"campaigns:  {len(self.outcomes)} "
            f"({self.n_completed} ok, {self.n_failed} failed)",
            f"cache:      {self.cache_stats}",
            f"duplicate simulations across campaigns: "
            f"{self.duplicate_simulations}",
        ]
        for outcome in self.outcomes:
            status = "ok" if outcome.ok else f"FAILED: {outcome.error}"
            detail = ""
            if outcome.already_complete:
                detail = " (already complete)"
            elif outcome.resumed:
                detail = " (resumed)"
            lines.append(f"  - {outcome.name}: {status}{detail}")
        return "\n".join(lines)


def _write_result(path: Path, outcome_name: str, result: CampaignResult) -> None:
    """Persist the campaign's final log; JSON floats round-trip doubles
    via shortest repr, so byte-equal files mean bitwise-equal X/y."""
    payload = {
        "campaign": outcome_name,
        "method": result.run.method,
        "n_evaluations": result.run.n_evaluations,
        "X": result.run.X.tolist(),
        "y": result.run.y.tolist(),
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(
        json.dumps(payload, sort_keys=True, indent=None), encoding="utf-8"
    )
    tmp.replace(path)


class CampaignScheduler:
    """Run submitted :class:`~repro.campaign.CampaignSpec` jobs concurrently.

    Parameters
    ----------
    runs_dir:
        Directory for per-campaign ledgers, result files and (by
        default) the persistent cache.  Created if missing.
    cache:
        An existing :class:`~repro.runtime.cache.ResultCache` every
        campaign shares.  Default: a persistent store opened at
        ``runs_dir / "cache"``.
    max_concurrent:
        How many campaigns run at once (each on its own thread).
    broker_config:
        Base :class:`~repro.runtime.broker.BrokerConfig` for every
        campaign.
    telemetry:
        Shared observability for the whole service — every campaign's
        spans nest in one trace under a ``scheduled_campaign`` span, and
        every campaign's broker counts sum in one registry.  ``None``
        turns telemetry off; the outcomes still carry each campaign's
        queue wait and elapsed time, and :attr:`SchedulerResult.cache_stats`
        the shared cache's counts.  A :class:`~repro.telemetry.TelemetryConfig`
        is materialized and owned (closed by :meth:`close`).
    resume:
        When True, a job whose result file exists is skipped, and a job
        whose ledger exists is resumed: its completed evaluations are
        preloaded into the shared cache and the ledger is extended in
        place, reproducing the interrupted run bitwise.
    """

    def __init__(
        self,
        runs_dir: str | Path,
        *,
        cache: ResultCache | None = None,
        max_concurrent: int = 2,
        broker_config: BrokerConfig | None = None,
        telemetry: TelemetryLike = None,
        resume: bool = False,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        self.runs_dir = Path(runs_dir)
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self.cache = (
            cache if cache is not None else ResultCache.open(self.runs_dir / "cache")
        )
        self.config = (
            broker_config if broker_config is not None else BrokerConfig()
        )
        self.max_concurrent = int(max_concurrent)
        self._resume = bool(resume)
        self._owns_telemetry = isinstance(telemetry, TelemetryConfig)
        self.telemetry = (
            Telemetry.from_config(telemetry)
            if isinstance(telemetry, TelemetryConfig)
            else resolve_telemetry(telemetry)
        )
        self._specs: list[CampaignSpec] = []
        self._closed = False

    # -- job intake -----------------------------------------------------------

    def submit(self, spec: CampaignSpec) -> None:
        """Queue one campaign for the next :meth:`run`."""
        if any(existing.name == spec.name for existing in self._specs):
            raise ValueError(
                f"a campaign named {spec.name!r} is already submitted; "
                "names key the per-campaign ledger and result files"
            )
        self._specs.append(spec)

    def submit_all(self, specs: list[CampaignSpec]) -> None:
        for spec in specs:
            self.submit(spec)

    # -- paths ----------------------------------------------------------------

    def ledger_path(self, name: str) -> Path:
        return self.runs_dir / f"{name}.jsonl"

    def result_path(self, name: str) -> Path:
        return self.runs_dir / f"{name}.result.json"

    # -- execution ------------------------------------------------------------

    def run(self) -> SchedulerResult:
        """Drain every submitted campaign, ``max_concurrent`` at a time;
        outcomes come back in submission order."""
        if self._closed:
            raise RuntimeError("scheduler is closed")
        specs, self._specs = self._specs, []
        enqueued = time.perf_counter()
        if self._resume:
            self._preload_ledgers(specs)

        # a stable sort: submission order within a priority
        by_priority = sorted(specs, key=lambda spec: -spec.priority)
        n_workers = max(1, min(self.max_concurrent, len(specs)))
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = {
                spec.name: pool.submit(self._run_job, spec, enqueued)
                for spec in by_priority
            }
        return SchedulerResult(
            outcomes=[futures[spec.name].result() for spec in specs],
            cache_stats=dict(self.cache.stats),
            metrics=self.telemetry.snapshot(),
        )

    def _preload_ledgers(self, specs: list[CampaignSpec]) -> None:
        """Seed the shared cache from *every* resumable ledger up front.

        Campaign A's pre-kill simulations may be recorded only in A's
        ledger (its partner B logged cache hits).  If B's worker starts
        before A's job has replayed A's ledger, B re-claims and
        re-simulates those points — duplicated work the per-job preload
        cannot prevent.  Replaying all ledgers before the first worker
        starts makes every recorded value visible to every campaign from
        its first claim.  Ledgers of already-complete campaigns are
        replayed too: their values serve the others.
        """
        for spec in specs:
            ledger_path = self.ledger_path(spec.name)
            if not ledger_path.exists():
                continue
            try:
                self.cache.preload(read_ledger(ledger_path).completed)
            except Exception:  # noqa: BLE001 — left for the job itself
                # a bad ledger fails its own campaign in _run_job, where
                # the error is recorded on that campaign's outcome
                continue

    def _run_job(self, spec: CampaignSpec, enqueued: float) -> CampaignOutcome:
        queue_wait = time.perf_counter() - enqueued
        ledger_path = self.ledger_path(spec.name)
        result_path = self.result_path(spec.name)
        outcome = CampaignOutcome(
            name=spec.name,
            queue_wait_seconds=queue_wait,
            ledger_path=ledger_path,
            result_path=result_path,
        )
        try:
            if self._resume and result_path.exists():
                outcome.already_complete = True
                return outcome
            if self._resume and ledger_path.exists():
                # the interrupted run's completed evaluations serve the
                # rerun below, which appends to the same ledger (its first
                # write cuts a torn final line)
                self.cache.preload(read_ledger(ledger_path).completed)
                outcome.resumed = True

            policy = RuntimePolicy(
                config=self.config,
                cache=self.cache,
                ledger=RunLedger(ledger_path),
            )
            t0 = time.perf_counter()
            try:
                with self.telemetry.tracer.span(
                    "scheduled_campaign",
                    campaign=spec.name,
                    priority=spec.priority,
                    resumed=outcome.resumed,
                ) as span:
                    span.set("queue_wait_seconds", queue_wait)
                    result = run_campaign_spec(
                        spec, policy=policy, telemetry=self.telemetry
                    )
                    span.set("n_evaluations", result.run.n_evaluations)
            finally:
                policy.close()
            outcome.elapsed_seconds = time.perf_counter() - t0
            _write_result(result_path, spec.name, result)
            outcome.result = result
        except Exception as exc:  # noqa: BLE001 — one bad job must not sink the fleet
            outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release owned telemetry; the cache holds no open handle."""
        if self._closed:
            return
        self._closed = True
        if self._owns_telemetry:
            self.telemetry.close()

    def __enter__(self) -> "CampaignScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


__all__ = ["CampaignOutcome", "CampaignScheduler", "SchedulerResult"]
