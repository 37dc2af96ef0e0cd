"""Async multi-campaign scheduler over a shared persistent result cache.

The scheduler is deliberately thin glue over machinery earlier PRs
hardened: campaigns run through the single
:func:`~repro.campaign.run_campaign_spec` code path, checkpoint through
their own :class:`~repro.runtime.ledger.RunLedger`, dedup through one
shared :class:`~repro.runtime.cache.ResultCache` (single-flight, so two
campaigns racing on the same design never both simulate it), and resume
through :func:`repro.runtime.resume.resume` — which makes a SIGKILL of
the whole service recoverable campaign by campaign, bitwise.

Concurrency model: jobs are drained from an in-memory priority queue
(higher ``CampaignSpec.priority`` first, FIFO within a priority) by
``max_concurrent`` asyncio workers; each worker pushes the actual
campaign onto a thread via :func:`asyncio.to_thread`, because engines
and brokers are synchronous, thread-safe code.  The event loop itself
never blocks on simulation.

Artifacts live under ``runs_dir``: ``<name>.jsonl`` (ledger),
``<name>.result.json`` (final X/y, written atomically after the run so
its existence certifies completion) and ``cache/`` (the persistent
shard store, unless an external cache is injected).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.campaign import CampaignResult, CampaignSpec, run_campaign_spec
from repro.runtime.broker import BrokerConfig, RuntimePolicy
from repro.runtime.cache import ResultCache
from repro.runtime.ledger import RunLedger, read_ledger
from repro.runtime.resume import resume
from repro.telemetry.config import (
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
        "X": [[float(v) for v in row] for row in result.run.X],
        "y": [float(v) for v in result.run.y],
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
        ``runs_dir / "cache"`` (closed when the scheduler closes).
    max_entries:
        LRU bound for the default cache; ignored when ``cache`` is given.
    max_concurrent:
        How many campaigns run at once (each on its own thread).
    broker_config:
        Base :class:`~repro.runtime.broker.BrokerConfig` for every
        campaign; ``cache_decimals`` is aligned to the shared cache.
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
        max_entries: int | None = None,
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
        self._owns_cache = cache is None
        if cache is None:
            self.cache = ResultCache.open(
                self.runs_dir / "cache", max_entries=max_entries
            )
        else:
            self.cache = cache
        cfg = broker_config if broker_config is not None else BrokerConfig()
        self.config = replace(cfg, cache_decimals=self.cache.decimals)
        self.max_concurrent = int(max_concurrent)
        self._resume = bool(resume)
        self._owns_telemetry = isinstance(telemetry, TelemetryConfig)
        self.telemetry = resolve_telemetry(telemetry)
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
        """Drain the queue to completion (blocking wrapper)."""
        return asyncio.run(self.run_async())

    async def run_async(self) -> SchedulerResult:
        """Drain every submitted campaign, ``max_concurrent`` at a time."""
        if self._closed:
            raise RuntimeError("scheduler is closed")
        specs, self._specs = self._specs, []
        queue: asyncio.PriorityQueue[
            tuple[int, int, CampaignSpec, float]
        ] = asyncio.PriorityQueue()
        for seq, spec in enumerate(specs):
            queue.put_nowait((-spec.priority, seq, spec, time.perf_counter()))

        if self._resume:
            await asyncio.to_thread(self._preload_ledgers, specs)

        outcomes: dict[int, CampaignOutcome] = {}
        n_workers = max(1, min(self.max_concurrent, len(specs)))
        workers = [
            asyncio.create_task(self._worker(queue, outcomes))
            for _ in range(n_workers)
        ]
        await asyncio.gather(*workers)

        ordered = [outcomes[seq] for seq in sorted(outcomes)]
        return SchedulerResult(
            outcomes=ordered,
            cache_stats=dict(self.cache.stats),
            metrics=self.telemetry.snapshot(),
        )

    async def _worker(
        self,
        queue: "asyncio.PriorityQueue[tuple[int, int, CampaignSpec, float]]",
        outcomes: dict[int, CampaignOutcome],
    ) -> None:
        while True:
            try:
                _, seq, spec, enqueued = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            outcomes[seq] = await asyncio.to_thread(
                self._run_job, spec, enqueued
            )

    def _preload_ledgers(self, specs: list[CampaignSpec]) -> None:
        """Seed the shared cache from *every* resumable ledger up front.

        Campaign A's pre-kill simulations may be recorded only in A's
        ledger (its partner B logged cache hits).  If B's worker starts
        before A's job has replayed A's ledger, B re-claims and
        re-simulates those points — duplicated work the per-job
        :func:`resume` call cannot prevent.  Replaying all ledgers before
        the first worker starts makes every recorded value visible to
        every campaign from its first claim.  Ledgers of already-complete
        campaigns are replayed too: their values serve the others.
        """
        for spec in specs:
            ledger_path = self.ledger_path(spec.name)
            if not ledger_path.exists():
                continue
            try:
                resume(
                    ledger_path,
                    decimals=self.cache.decimals,
                    cache=self.cache,
                )
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
                # preloads the interrupted run's completed evaluations
                # into the shared cache and heals a torn final line; the
                # re-run below appends to the same ledger
                resume(
                    ledger_path,
                    decimals=self.cache.decimals,
                    cache=self.cache,
                )
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
                policy.ledger.close()
            outcome.elapsed_seconds = time.perf_counter() - t0
            _write_result(result_path, spec.name, result)
            outcome.result = result
        except Exception as exc:  # noqa: BLE001 — one bad job must not sink the fleet
            outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release owned resources (default cache, owned telemetry)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_cache:
            self.cache.close()
        if self._owns_telemetry:
            self.telemetry.close()

    def __enter__(self) -> "CampaignScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


__all__ = ["CampaignOutcome", "CampaignScheduler", "SchedulerResult"]
