"""The evaluation broker: fault-tolerant dispatch of objective batches.

Every engine and sampler routes its objective calls through an
:class:`EvaluationBroker`.  The broker owns the concerns a bare function
call cannot express when each evaluation is an expensive, failure-prone
simulation:

* **dispatch** — a batch of points fans out as chunks across a
  :class:`~repro.utils.parallel.WorkerPool` (inline / thread / process):
  one vectorized ``objective.evaluate`` call per worker when the objective
  :attr:`~repro.runtime.objective.Objective.prefers_batch` and no timeout
  is set, else one call per point under the per-evaluation timeout;
* **retry** — transient failures (exceptions, timeouts, non-finite
  returns — the NaN quarantine) are retried up to ``max_retries`` times
  with exponential backoff plus deterministic jitter;
* **graceful degradation** — retry exhaustion resolves through a
  configurable failure policy: ``raise`` (default), ``skip`` (drop the
  point from the batch) or ``penalty`` (substitute a finite sentinel
  value);
* **deduplication** — results are stored in a content-addressed
  :class:`~repro.runtime.cache.ResultCache` keyed on ``(cache_key,
  rounded x)``, so repeated points never re-simulate.  Across *concurrent*
  brokers sharing one cache (the multi-campaign scheduler, DESIGN.md §15)
  the cache's single-flight claims extend the guarantee: a batch first
  claims ownership of each missing digest, simulates only the digests it
  won, and blocks on digests another broker is simulating right now —
  served as ``cache_hit`` events once the owner's value lands, so N
  campaigns racing over shared designs still produce
  ``duplicate_simulations == 0``;
* **audit + checkpoint** — every event is appended to an optional
  :class:`~repro.runtime.ledger.RunLedger`, which doubles as the resume
  checkpoint;
* **timing** — per-simulation durations accumulate into
  ``stats.eval_seconds``, giving :class:`~repro.bo.records.RunResult` its
  ``eval_seconds`` / ``overhead_seconds`` split;
* **counting** — :class:`BrokerStats` is the only place the broker counts;
  each batch adds its delta to the telemetry registry under the
  :data:`_COUNTERS` names, and its cache hit/miss split to the open phase
  span.

Determinism: retries and caching are value-transparent — a campaign run
under transient fault injection produces exactly the ``X``/``y`` of the
fault-free run, and a cache hit returns the exact float the simulation
produced.  The backoff jitter draws from a broker-private seeded stream
that never touches engine RNG state.

Thread-sharing contract (DESIGN.md §13): the callable the broker submits
to its pool (``self._simulate_chunk``) touches only locals and its
arguments — *all* shared-state mutation (cache puts, ledger appends,
counter deltas, ``stats`` bookkeeping) happens on the dispatching
thread after the pool joins the batch.  The shared collaborators
(:class:`~repro.runtime.cache.ResultCache`,
:class:`~repro.runtime.ledger.RunLedger`,
:class:`~repro.telemetry.metrics.MetricsRegistry`,
:class:`~repro.telemetry.trace.Tracer`) are each ``@thread_shared`` and
internally locked, so the broker itself is also safe to *call* from
multiple campaign threads (ROADMAP item 1) as long as each thread uses its
own broker instance over the shared cache/ledger/telemetry — broker
``stats`` are per-instance and unsynchronized by design.  The NL6xx lint
family (``tools/numlint/passes/concurrency.py``) checks the submitted
callables statically; the ``REPRO_SANITIZE=1`` race sanitizer checks the
shared objects at runtime.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro._typing import FloatArray, IntArray
from repro.runtime.cache import (
    CLAIM_HIT,
    CLAIM_INFLIGHT,
    CLAIM_OWNED,
    DEFAULT_DECIMALS,
    ResultCache,
)
from repro.runtime.ledger import LEDGER_VERSION, RunLedger
from repro.runtime.objective import Objective, require_objective
from repro.telemetry.config import TelemetryLike, resolve_telemetry
from repro.utils.parallel import POOL_KINDS, WorkerPool
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import as_matrix

#: Recognized failure policies.
FAILURE_POLICIES = ("raise", "skip", "penalty")


class EvaluationError(RuntimeError):
    """An evaluation failed after exhausting its retry budget."""


class NonFiniteResultError(RuntimeError):
    """The objective returned NaN/inf — quarantined like any failure."""


@dataclass(frozen=True)
class BrokerConfig:
    """Dispatch, retry and failure-policy knobs for the broker.

    Parameters
    ----------
    timeout_seconds:
        Per-evaluation deadline; None disables.  Requires a non-inline
        executor to enforce (``executor="auto"`` picks threads when set).
        Setting it dispatches every point as its own chunk, so the
        deadline applies to one point.
    max_retries:
        Additional attempts after the first failure (0 = fail fast).
    backoff_seconds / backoff_factor / backoff_jitter:
        Retry round ``k`` sleeps ``backoff_seconds * backoff_factor**k``,
        scaled by a deterministic jitter in ``[1-j, 1+j]``.
    failure_policy:
        ``"raise"`` propagates an :class:`EvaluationError`; ``"skip"``
        drops the point from the batch; ``"penalty"`` substitutes
        ``penalty_value``.
    penalty_value:
        Required (finite) when ``failure_policy="penalty"`` — it enters
        ``RunResult.y``, so it must be a valid observation; pick something
        clearly uninteresting in minimization orientation (large).
    n_jobs:
        Worker width for dispatch parallelism (1 = sequential).  A round's
        pending points split evenly into ``n_jobs`` vectorized chunks when
        the objective prefers batches and no timeout is set.
    executor:
        ``"auto"`` (inline unless a timeout or ``n_jobs>1`` needs a pool),
        or an explicit :data:`~repro.utils.parallel.POOL_KINDS` entry.
    cache_decimals:
        Rounding applied to points before content-addressing.
    """

    timeout_seconds: float | None = None
    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1
    failure_policy: str = "raise"
    penalty_value: float | None = None
    n_jobs: int = 1
    executor: str = "auto"
    cache_decimals: int = DEFAULT_DECIMALS

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_seconds < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_seconds >= 0 and backoff_factor >= 1 required")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError(
                f"backoff_jitter must lie in [0, 1), got {self.backoff_jitter}"
            )
        if self.failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {self.failure_policy!r}"
            )
        if self.failure_policy == "penalty":
            if self.penalty_value is None or not math.isfinite(self.penalty_value):
                raise ValueError(
                    "failure_policy='penalty' requires a finite penalty_value "
                    "(it enters RunResult.y as an observation)"
                )
        if self.executor not in ("auto",) + POOL_KINDS:
            raise ValueError(
                f"executor must be 'auto' or one of {POOL_KINDS}, "
                f"got {self.executor!r}"
            )

    def resolve_executor(self) -> str:
        if self.executor != "auto":
            return self.executor
        if self.timeout_seconds is not None or self.n_jobs > 1:
            return "thread"
        return "inline"


@dataclass
class BrokerStats:
    """Counters accumulated across a broker's lifetime.

    The broker's only count of what it did; the telemetry registry
    receives each batch's delta of the fields :data:`_COUNTERS` names.
    """

    n_points: int = 0  # points requested through evaluate/evaluate_batch
    n_simulations: int = 0  # attempts actually dispatched to the objective
    n_completed: int = 0
    n_cache_hits: int = 0
    n_cache_misses: int = 0  # digests this broker claimed to simulate
    n_retries: int = 0
    n_attempt_failures: int = 0
    n_timeouts: int = 0  # attempt failures that were timeouts
    n_skipped: int = 0
    n_penalized: int = 0
    eval_seconds: float = 0.0  # summed duration of completed simulations


#: ``(BrokerStats field, registry counter)`` pairs each batch publishes.
_COUNTERS = (
    ("n_completed", "evaluations.completed"),
    ("n_cache_hits", "cache.hits"),
    ("n_cache_misses", "cache.misses"),
    ("n_retries", "evaluations.retries"),
    ("n_attempt_failures", "evaluations.attempt_failures"),
    ("n_timeouts", "evaluations.timeouts"),
    ("n_skipped", "evaluations.skipped"),
    ("n_penalized", "evaluations.penalized"),
)


@dataclass
class EvalBatch:
    """Outcome of one batch: surviving points in submission order.

    Under ``raise``/``penalty`` policies ``X``/``y`` cover every submitted
    point; under ``skip`` dropped points are absent and ``index`` maps each
    surviving row back to its position in the submitted batch.
    """

    X: FloatArray
    y: FloatArray
    index: IntArray
    n_submitted: int

    @property
    def n_evaluated(self) -> int:
        return int(self.y.shape[0])


@dataclass
class _Pending:
    """One not-yet-resolved point within a batch."""

    pos: int
    eval_id: int
    x: FloatArray
    digest: str


class EvaluationBroker:
    """Routes every objective evaluation of a run; see module docstring.

    Parameters
    ----------
    objective:
        An :class:`~repro.runtime.objective.Objective` (wrap legacy
        callables explicitly with
        :class:`~repro.runtime.objective.FunctionObjective`).
    config:
        Dispatch/retry/policy knobs; defaults are zero-overhead inline
        execution with fail-fast semantics compatible with direct calls.
    cache:
        Shared result cache; None creates a private per-broker cache (still
        deduplicates within the run).
    ledger:
        Optional :class:`RunLedger` receiving every event; a campaign
        header is appended on construction.
    recorder:
        Optional :class:`~repro.bo.records.RunRecorder` fed every
        surviving evaluation, in order.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`.  Each completed
        simulation emits an ``evaluate`` span (worker-measured duration,
        parented under whatever span the dispatching thread has open, with
        the ledger ``id`` as attribute — the trace/ledger join key), and
        each batch adds its :class:`BrokerStats` counts (completed, cache
        hits and misses, retries, attempt failures, timeouts, skipped,
        penalized) to the metrics registry.
    seed:
        Stream for backoff jitter only (never touches caller RNG state).
    """

    def __init__(
        self,
        objective: Objective,
        config: BrokerConfig | None = None,
        cache: ResultCache | None = None,
        ledger: RunLedger | None = None,
        recorder: Any | None = None,
        campaign: dict[str, Any] | None = None,
        telemetry: TelemetryLike = None,
        seed: SeedLike = 0,
    ) -> None:
        self.objective = require_objective(objective, "EvaluationBroker")
        self.config = config if config is not None else BrokerConfig()
        self.telemetry = resolve_telemetry(telemetry)
        self._tracer = self.telemetry.tracer
        self._metrics = self.telemetry.metrics
        self.cache = (
            cache
            if cache is not None
            else ResultCache.in_memory(decimals=self.config.cache_decimals)
        )
        self.ledger = ledger
        self.recorder = recorder
        self.stats = BrokerStats()
        self._rng = as_generator(0 if seed is None else seed)
        self._next_id = 0
        if self.ledger is not None:
            header: dict[str, Any] = {
                "event": "campaign",
                "version": LEDGER_VERSION,
                "cache_key": self.objective.cache_key,
                "dim": self.objective.dim,
                "failure_policy": self.config.failure_policy,
                "max_retries": self.config.max_retries,
                "cache_decimals": self.cache.decimals,
            }
            if campaign:
                header.update(campaign)
            self.ledger.append(header)

    # -- internals -----------------------------------------------------------

    def _log(self, event: dict[str, Any]) -> None:
        if self.ledger is not None:
            self.ledger.append(event)

    def _simulate_chunk(self, X: FloatArray) -> tuple[FloatArray, float]:
        """One objective call over a ``(k, dim)`` chunk.

        NaN rows are *not* raised here — they surface per point in
        :meth:`_run_chunks` so one bad row quarantines alone instead of
        failing its whole chunk.
        """
        start = time.perf_counter()
        out = np.asarray(self.objective.evaluate(X), dtype=float).reshape(-1)
        seconds = time.perf_counter() - start
        if out.shape[0] != X.shape[0]:
            raise ValueError(
                f"{type(self.objective).__name__}.evaluate returned "
                f"{out.shape[0]} values for {X.shape[0]} rows"
            )
        return out, seconds

    def _rows_per_chunk(self, n: int) -> int:
        """Points per chunk when ``n`` points are pending.

        A vectorizing objective gets ``n_jobs`` even chunks; a timeout, or
        an objective that does not prefer batches, gets one point per
        chunk, so the deadline and any failure concern a single point.
        """
        if self.config.timeout_seconds is None and self.objective.prefers_batch:
            return -(-n // max(1, self.config.n_jobs))  # ceil division
        return 1

    def _run_chunks(
        self, pool: WorkerPool, pending: list[_Pending], size: int
    ) -> list[tuple[Any, BaseException | None]]:
        """Dispatch one retry round as chunks of ``size`` points.

        Returns per-point ``(result, error)`` outcomes aligned with
        ``pending``.  A size-1 chunk's exception is that point's outcome;
        a multi-row chunk's exception re-dispatches its rows as size-1
        chunks within the same round, so every point still resolves to
        one outcome per attempt.  Per-point seconds are the chunk mean
        (the total stays exact).
        """
        n = len(pending)
        bounds = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
        chunk_outcomes = pool.run_tasks(
            self._simulate_chunk,
            [np.stack([p.x for p in pending[lo:hi]]) for lo, hi in bounds],
            timeout=self.config.timeout_seconds,
        )
        outcomes: list[tuple[Any, BaseException | None]] = []
        for (lo, hi), (result, error) in zip(bounds, chunk_outcomes):
            if error is not None:
                if hi - lo == 1:
                    outcomes.append((None, error))
                else:
                    # one raising row poisons the whole vectorized call:
                    # re-run the chunk's rows one at a time
                    outcomes.extend(self._run_chunks(pool, pending[lo:hi], 1))
                continue
            out, seconds = result  # type: ignore[misc]
            per_point = seconds / (hi - lo)
            for value in out.tolist():
                if math.isfinite(value):
                    outcomes.append(((value, per_point), None))
                else:
                    outcomes.append(
                        (
                            None,
                            NonFiniteResultError(
                                f"objective returned non-finite value {value!r}"
                            ),
                        )
                    )
        return outcomes

    def _backoff_delay(self, attempt: int) -> float:
        delay = self.config.backoff_seconds * self.config.backoff_factor**attempt
        if self.config.backoff_jitter > 0.0:
            delay *= 1.0 + self.config.backoff_jitter * float(
                self._rng.uniform(-1.0, 1.0)
            )
        return delay

    def _record_hit(
        self,
        pos: int,
        eval_id: int,
        digest: str,
        value: float,
        values: list[float | None],
    ) -> None:
        """Bookkeeping for one point served without simulating here."""
        self.stats.n_cache_hits += 1
        values[pos] = value
        self._log(
            {"event": "cache_hit", "id": eval_id, "digest": digest, "y": value}
        )

    def _await_inflight(
        self,
        waiting: list[_Pending],
        values: list[float | None],
        dropped: list[bool],
        owned: set[str],
    ) -> None:
        """Resolve points a concurrent broker claimed before this batch.

        Each point blocks until the owning broker publishes its value
        (served as a cache hit) or abandons the claim (this broker then
        races to re-claim and simulate it — the loop re-parks points that
        lose the race to a third broker).  Called only after this batch's
        own simulations resolved, so no broker ever waits while holding an
        unresolved claim — the fleet cannot deadlock on claims.
        """
        while waiting:
            parked: list[_Pending] = []
            claimed: list[_Pending] = []
            for p in waiting:
                value = self.cache.wait_for(p.digest)
                if value is not None:
                    self._record_hit(p.pos, p.eval_id, p.digest, value, values)
                    continue
                status, hit = self.cache.lookup_or_claim([p.digest])[0]
                if status == CLAIM_HIT:
                    self._record_hit(p.pos, p.eval_id, p.digest, hit, values)
                elif status == CLAIM_OWNED:
                    owned.add(p.digest)
                    self.stats.n_cache_misses += 1
                    claimed.append(p)
                else:  # a third broker won the re-claim race; park again
                    parked.append(p)
            if claimed:
                self._run_rounds(claimed, values, dropped, owned)
            waiting = parked

    def _resolve_exhausted(
        self,
        pending: _Pending,
        error: BaseException,
        values: list[float | None],
        dropped: list[bool],
        owned: set[str],
    ) -> None:
        # terminal non-completion: release the single-flight claim *now* so
        # concurrent waiters re-claim immediately instead of blocking until
        # this batch's finally (two brokers skip-failing each other's
        # waited points would otherwise deadlock)
        self.cache.abandon_many((pending.digest,))
        owned.discard(pending.digest)
        policy = self.config.failure_policy
        if policy == "raise":
            raise EvaluationError(
                f"evaluation {pending.eval_id} failed after "
                f"{self.config.max_retries + 1} attempts: {error}"
            ) from error
        if policy == "skip":
            self.stats.n_skipped += 1
            dropped[pending.pos] = True
            self._log({"event": "skipped", "id": pending.eval_id})
        else:  # penalty
            penalty = float(self.config.penalty_value)  # type: ignore[arg-type]
            self.stats.n_penalized += 1
            values[pending.pos] = penalty
            self._log(
                {"event": "penalized", "id": pending.eval_id, "y": penalty}
            )

    # -- public API ----------------------------------------------------------

    def evaluate_batch(self, X: FloatArray) -> EvalBatch:
        """Evaluate a ``(n, dim)`` batch through cache, pool and policies."""
        X = as_matrix(X, self.objective.dim)
        n = X.shape[0]
        before = replace(self.stats)
        self.stats.n_points += n
        values: list[float | None] = [None] * n
        dropped = [False] * n

        pending: list[_Pending] = []
        waiting: list[_Pending] = []
        owned: set[str] = set()
        first_pos: dict[str, int] = {}
        duplicates: list[tuple[int, int, str]] = []  # (pos, eval_id, digest)
        try:
            # one vectorized rounding/hash pass over the whole block, and
            # one atomic lookup-or-claim for the block: hits resolve
            # immediately, missing digests are either claimed for this
            # broker (simulate) or already in flight under a concurrent
            # broker (wait for its value)
            digests = self.cache.keys_for_batch(self.objective.cache_key, X)
            claims = self.cache.lookup_or_claim(digests)
            for pos in range(n):
                digest = digests[pos]
                eval_id = self._next_id
                self._next_id += 1
                status, hit = claims[pos]
                if status == CLAIM_HIT:
                    self._record_hit(pos, eval_id, digest, hit, values)
                elif status == CLAIM_OWNED:
                    first_pos[digest] = pos
                    owned.add(digest)
                    self.stats.n_cache_misses += 1
                    pending.append(_Pending(pos, eval_id, X[pos], digest))
                elif status == CLAIM_INFLIGHT:
                    waiting.append(_Pending(pos, eval_id, X[pos], digest))
                else:  # CLAIM_REPEAT: same point again within this batch —
                    # simulate once, mirror the first occurrence's outcome
                    duplicates.append((pos, eval_id, digest))

            if pending:
                self._run_rounds(pending, values, dropped, owned)
            if waiting:
                # own simulations are done — block on concurrent owners
                # (waiting *after* simulating keeps the fleet deadlock-free:
                # nobody waits while holding an unresolved claim)
                self._await_inflight(waiting, values, dropped, owned)

            for pos, eval_id, digest in duplicates:
                lead = first_pos[digest]
                if dropped[lead]:
                    self.stats.n_skipped += 1
                    dropped[pos] = True
                    self._log({"event": "skipped", "id": eval_id})
                elif digest in self.cache:  # completed (penalties are not cached)
                    self.stats.n_cache_hits += 1
                    values[pos] = values[lead]
                    self._log(
                        {
                            "event": "cache_hit",
                            "id": eval_id,
                            "digest": digest,
                            "y": values[lead],
                        }
                    )
                else:
                    self.stats.n_penalized += 1
                    values[pos] = values[lead]
                    self._log(
                        {"event": "penalized", "id": eval_id, "y": values[lead]}
                    )
        finally:
            # release any claims still held (raise-policy exits, bugs in
            # the objective) so concurrent waiters can re-claim the points
            if owned:
                self.cache.abandon_many(owned)
            # the batch's counts, from the one place they are kept
            for name, counter in _COUNTERS:
                delta = getattr(self.stats, name) - getattr(before, name)
                if delta:
                    self._metrics.counter(counter).inc(delta)
            if n:
                # cache hits emit no evaluate span, so the open phase span
                # (iteration / init_design) is where per-phase hit rates
                # reach the report
                self._tracer.annotate(
                    "cache_hits", self.stats.n_cache_hits - before.n_cache_hits
                )
                self._tracer.annotate(
                    "cache_misses",
                    self.stats.n_cache_misses - before.n_cache_misses,
                )

        keep = [i for i in range(n) if not dropped[i]]
        y = np.array([values[i] for i in keep], dtype=float)
        batch = EvalBatch(
            X=X[keep].copy(),
            y=y,
            index=np.asarray(keep, dtype=np.int_),
            n_submitted=n,
        )
        if self.recorder is not None and batch.n_evaluated:
            self.recorder.extend(batch.X, batch.y)
        return batch

    def _run_rounds(
        self,
        pending: list[_Pending],
        values: list[float | None],
        dropped: list[bool],
        owned: set[str],
    ) -> None:
        kind = self.config.resolve_executor()
        pool = WorkerPool(kind=kind, n_jobs=self.config.n_jobs)
        attempt = 0
        try:
            while pending:
                for p in pending:
                    self._log(
                        {
                            "event": "dispatched",
                            "id": p.eval_id,
                            "attempt": attempt,
                            "digest": p.digest,
                        }
                    )
                outcomes = self._run_chunks(
                    pool, pending, self._rows_per_chunk(len(pending))
                )
                failed: list[tuple[_Pending, BaseException]] = []
                timed_out = False
                for p, (result, error) in zip(pending, outcomes):
                    self.stats.n_simulations += 1
                    if error is None:
                        value, seconds = result  # type: ignore[misc]
                        self.stats.n_completed += 1
                        self.stats.eval_seconds += seconds
                        values[p.pos] = value
                        self.cache.put(p.digest, value)  # releases the claim
                        owned.discard(p.digest)
                        # worker-measured duration, parented under whatever
                        # span (iteration/init_design) is open right now —
                        # the id attribute is the trace<->ledger join key
                        self._tracer.record_span(
                            "evaluate",
                            seconds,
                            {"id": p.eval_id, "attempt": attempt, "y": value},
                        )
                        self._log(
                            {
                                "event": "completed",
                                "id": p.eval_id,
                                "attempt": attempt,
                                "digest": p.digest,
                                "x": [float(v) for v in p.x],
                                "y": value,
                                "seconds": seconds,
                                "cached": False,
                            }
                        )
                    else:
                        self.stats.n_attempt_failures += 1
                        if isinstance(error, TimeoutError):
                            self.stats.n_timeouts += 1
                            timed_out = True
                        self._log(
                            {
                                "event": "failed",
                                "id": p.eval_id,
                                "attempt": attempt,
                                "error": type(error).__name__,
                                "message": str(error),
                            }
                        )
                        failed.append((p, error))
                if not failed:
                    return
                if attempt >= self.config.max_retries:
                    for p, error in failed:
                        self._resolve_exhausted(p, error, values, dropped, owned)
                    return
                delay = self._backoff_delay(attempt)
                self.stats.n_retries += len(failed)
                for p, _ in failed:
                    self._log(
                        {
                            "event": "retried",
                            "id": p.eval_id,
                            "attempt": attempt + 1,
                            "backoff_seconds": delay,
                        }
                    )
                if delay > 0:
                    time.sleep(delay)
                if timed_out and kind != "inline":
                    # abandoned (timed-out) tasks still occupy workers;
                    # retries need a fresh pool or they queue behind the
                    # very hang that failed them
                    pool.close()
                    pool = WorkerPool(kind=kind, n_jobs=self.config.n_jobs)
                pending = [p for p, _ in failed]
                attempt += 1
        finally:
            pool.close()

    def evaluate(self, x: FloatArray) -> float | None:
        """Evaluate one point; returns None when the skip policy dropped it."""
        batch = self.evaluate_batch(np.asarray(x, dtype=float)[None, :])
        if batch.n_evaluated == 0:
            return None
        return float(batch.y[0])


@dataclass
class RuntimePolicy:
    """Bundled runtime wiring passed to every engine/sampler ``solve(...)``.

    A policy owns what should be *shared across* runs — the broker config,
    a result cache (deduplicating evaluations between methods that share an
    initial design), and a ledger (one event stream for the whole
    campaign).  Each ``solve`` builds its own broker from the policy via
    :func:`make_broker`.
    """

    config: BrokerConfig = field(default_factory=BrokerConfig)
    cache: ResultCache | None = None
    ledger: RunLedger | None = None

    @classmethod
    def shared(
        cls,
        ledger_path: str | Path | None = None,
        config: BrokerConfig | None = None,
        decimals: int | None = None,
        cache: ResultCache | None = None,
        cache_path: str | Path | None = None,
    ) -> "RuntimePolicy":
        """A policy with one shared cache (and optional ledger) for a campaign.

        ``cache`` reuses an existing store (e.g. the scheduler's persistent
        cross-campaign cache); ``cache_path`` opens a persistent
        :meth:`ResultCache.open` store at that directory.  Without either,
        a fresh in-memory cache is created.  When a cache is supplied, the
        policy's ``cache_decimals`` is aligned to it so brokers and
        resume agree on the digests.
        """
        if cache is not None and cache_path is not None:
            raise ValueError("pass cache or cache_path, not both")
        cfg = config if config is not None else BrokerConfig()
        if decimals is not None:
            cfg = replace(cfg, cache_decimals=decimals)
        if cache_path is not None:
            # ownership transfers to the returned policy; the caller scopes
            # the cache's lifetime through the policy it receives
            cache = ResultCache.open(  # numlint: disable=NL705
                cache_path,
                decimals=decimals if decimals is not None else None,
            )
        if cache is None:
            cache = ResultCache.in_memory(decimals=cfg.cache_decimals)
        elif cache.decimals != cfg.cache_decimals:
            cfg = replace(cfg, cache_decimals=cache.decimals)
        return cls(
            config=cfg,
            cache=cache,
            ledger=RunLedger(ledger_path) if ledger_path is not None else None,
        )


def make_broker(
    objective: Objective,
    runtime: RuntimePolicy | None = None,
    recorder: Any | None = None,
    method: str = "",
    telemetry: TelemetryLike = None,
) -> EvaluationBroker:
    """Build the broker one engine run uses, honoring a shared policy."""
    policy = runtime if runtime is not None else RuntimePolicy()
    campaign = {"method": method} if method else None
    return EvaluationBroker(
        objective,
        config=policy.config,
        cache=policy.cache,
        ledger=policy.ledger,
        recorder=recorder,
        campaign=campaign,
        telemetry=telemetry,
    )


__all__ = [
    "FAILURE_POLICIES",
    "BrokerConfig",
    "BrokerStats",
    "EvalBatch",
    "EvaluationBroker",
    "EvaluationError",
    "NonFiniteResultError",
    "RuntimePolicy",
    "make_broker",
]
