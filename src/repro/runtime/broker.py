"""The evaluation broker: fault-tolerant dispatch of objective batches.

Every engine and sampler routes its objective calls through an
:class:`EvaluationBroker`.  The broker owns the concerns a bare function
call cannot express when each evaluation is an expensive, failure-prone
simulation:

* **dispatch** — each retry round runs on the calling thread: one
  vectorized ``objective.evaluate`` call over the round when the objective
  :attr:`~repro.runtime.objective.Objective.prefers_batch` and no timeout
  is set, else one call per point.  Under a per-evaluation timeout each
  point runs alone on its own deadline thread, so a hung point costs only
  its own deadline;
* **retry** — transient failures (exceptions, timeouts, non-finite
  returns — the NaN quarantine) are retried up to ``max_retries`` times
  with exponential backoff plus deterministic jitter;
* **exhaustion** — a point whose retries ran out raises
  :class:`EvaluationError`.  Every point of its batch that completed is
  already stored and logged by then, so a rerun over the preloaded cache
  dispatches only the failed point;
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
  checkpoint.  A retry round is the unit of persistence: its
  ``dispatched`` events go out in one ledger write before it simulates,
  and its outcomes are handled in slices of :data:`PERSIST_SLICE` points —
  one :meth:`~repro.runtime.cache.ResultCache.put_many` for the slice's
  values, then one ledger write of its ``completed``/``failed`` events, so
  no ``completed`` line ever lands before its value is stored;
* **timing** — per-simulation durations accumulate into
  ``stats.eval_seconds``, giving :class:`~repro.bo.records.RunResult` its
  ``eval_seconds`` / ``overhead_seconds`` split;
* **result** — :meth:`EvaluationBroker.evaluate_batch` is the one entry
  point, and it returns the value of every submitted row; each engine
  stacks the rows it submitted and their values into its own
  ``RunResult``;
* **counting** — :class:`BrokerStats` is the only place the broker counts;
  each batch adds its delta to the telemetry registry under the
  :data:`_COUNTERS` names, and its cache hit/miss split to the open phase
  span.

Determinism: retries and caching are value-transparent — a campaign run
under transient fault injection produces exactly the ``X``/``y`` of the
fault-free run, and a cache hit returns the exact float the simulation
produced.  The backoff jitter draws from a broker-private seeded stream
that never touches engine RNG state.

Thread-sharing contract (DESIGN.md §13): the callable the broker runs
on a deadline thread (``self._simulate_chunk``) touches only locals and
its arguments — *all* shared-state mutation (cache puts, ledger appends,
counter deltas, ``stats`` bookkeeping) happens on the calling thread
once the round has resolved.  Deadline threads are daemons, so one still
stuck in a hung simulation never holds the process open at exit.  The
shared collaborators
(:class:`~repro.runtime.cache.ResultCache`,
:class:`~repro.runtime.ledger.RunLedger`,
:class:`~repro.telemetry.metrics.MetricsRegistry`,
:class:`~repro.telemetry.trace.Tracer`) are each ``@thread_shared`` and
internally locked, so the broker itself is also safe to *call* from
multiple campaign threads as long as each thread uses its own broker
instance over the shared cache/ledger/telemetry — broker ``stats`` are
per-instance and unsynchronized by design.  The NL6xx lint family
(``tools/numlint/passes/concurrency.py``) checks the submitted callable
statically; the ``REPRO_SANITIZE=1`` race sanitizer checks the shared
objects at runtime.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro._typing import FloatArray
from repro.runtime.cache import (
    CLAIM_HIT,
    CLAIM_INFLIGHT,
    CLAIM_OWNED,
    DEFAULT_DECIMALS,
    ResultCache,
)
from repro.runtime.ledger import LEDGER_VERSION, RunLedger
from repro.runtime.objective import Objective, require_objective
from repro.telemetry.config import Telemetry, resolve_telemetry
from repro.utils.rng import as_generator
from repro.utils.validation import as_matrix

#: Points per persistence slice of a retry round: one cache ``put_many`` and
#: one ledger write each.  Bounded so a 20k-point round never holds all of
#: its event lines in memory at once.
PERSIST_SLICE = 1024

#: Retry round ``k`` sleeps ``backoff_seconds * BACKOFF_FACTOR**k``, scaled
#: by a deterministic jitter drawn uniformly from ``[1 - j, 1 + j]`` with
#: ``j = BACKOFF_JITTER``.
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.1


class EvaluationError(RuntimeError):
    """An evaluation failed after exhausting its retry budget."""


class NonFiniteResultError(RuntimeError):
    """The objective returned NaN/inf — quarantined like any failure."""


@dataclass(frozen=True)
class BrokerConfig:
    """Dispatch and retry knobs for the broker.

    Parameters
    ----------
    timeout_seconds:
        Per-evaluation deadline; None disables.  Setting it runs every
        point alone on its own thread, and the deadline starts when that
        point starts.  A point past its deadline fails with a
        :class:`TimeoutError`; its thread is abandoned, not killed, and
        as a daemon it does not keep the process alive at exit.
    max_retries:
        Additional attempts after the first failure (0 = fail fast).
    backoff_seconds:
        The first retry round's sleep; round ``k`` sleeps
        ``backoff_seconds * BACKOFF_FACTOR**k`` with a deterministic
        jitter of up to ``BACKOFF_JITTER`` either way.
    """

    timeout_seconds: float | None = None
    max_retries: int = 2
    backoff_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_seconds < 0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )


@dataclass
class BrokerStats:
    """Counters accumulated across a broker's lifetime.

    The broker's only count of what it did; the telemetry registry
    receives each batch's delta of the fields :data:`_COUNTERS` names.
    """

    n_points: int = 0  # points requested through evaluate_batch
    n_simulations: int = 0  # attempts actually dispatched to the objective
    n_completed: int = 0
    n_cache_hits: int = 0
    n_cache_misses: int = 0  # digests this broker claimed to simulate
    n_retries: int = 0
    n_attempt_failures: int = 0
    n_timeouts: int = 0  # attempt failures that were timeouts
    eval_seconds: float = 0.0  # summed duration of completed simulations


#: ``(BrokerStats field, registry counter)`` pairs each batch publishes.
_COUNTERS = (
    ("n_completed", "evaluations.completed"),
    ("n_cache_hits", "cache.hits"),
    ("n_cache_misses", "cache.misses"),
    ("n_retries", "evaluations.retries"),
    ("n_attempt_failures", "evaluations.attempt_failures"),
    ("n_timeouts", "evaluations.timeouts"),
)


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
        Dispatch and retry knobs; the defaults run inline with no
        deadline and two retries.
    cache:
        Shared result cache; None creates a private per-broker cache (still
        deduplicates within the run).
    ledger:
        Optional :class:`RunLedger` receiving every event; a campaign
        header is appended on construction.
    telemetry:
        Optional live :class:`~repro.telemetry.Telemetry`.  Each completed
        simulation emits an ``evaluate`` span (worker-measured duration,
        parented under whatever span the dispatching thread has open, with
        the ledger ``id`` as attribute — the trace/ledger join key), and
        each batch adds its :class:`BrokerStats` counts (completed, cache
        hits and misses, retries, attempt failures, timeouts) to the
        metrics registry.
    """

    def __init__(
        self,
        objective: Objective,
        config: BrokerConfig | None = None,
        cache: ResultCache | None = None,
        ledger: RunLedger | None = None,
        campaign: dict[str, Any] | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.objective = require_objective(objective, "EvaluationBroker")
        self.config = config if config is not None else BrokerConfig()
        self.telemetry = resolve_telemetry(telemetry)
        self._tracer = self.telemetry.tracer
        self._metrics = self.telemetry.metrics
        self.cache = cache if cache is not None else ResultCache.in_memory()
        self.ledger = ledger
        self.stats = BrokerStats()
        self._rng = as_generator(0)
        self._next_id = 0
        if self.ledger is not None:
            header: dict[str, Any] = {
                "event": "campaign",
                "version": LEDGER_VERSION,
                "cache_key": self.objective.cache_key,
                "dim": self.objective.dim,
                "max_retries": self.config.max_retries,
                "cache_decimals": DEFAULT_DECIMALS,
            }
            if campaign:
                header.update(campaign)
            self.ledger.append(header)

    # -- internals -----------------------------------------------------------

    def _log(self, events: Iterable[dict[str, Any]]) -> None:
        """Write a group of events with one ledger write, if logging."""
        if self.ledger is not None:
            self.ledger.extend(events)

    def _simulate_chunk(
        self, X: FloatArray, future: Future[tuple[FloatArray, float]]
    ) -> None:
        """One objective call over a ``(k, dim)`` chunk.

        Its ``(values, seconds)`` or its exception lands in ``future``, so
        the call runs the same on the calling thread and on a deadline
        thread.  NaN rows are *not* raised here — they surface per point in
        :meth:`_run_chunks` so one bad row quarantines alone instead of
        failing its whole chunk.
        """
        try:
            start = time.perf_counter()
            out = np.asarray(self.objective.evaluate(X), dtype=float).reshape(-1)
            seconds = time.perf_counter() - start
            if out.shape[0] != X.shape[0]:
                raise ValueError(
                    f"{type(self.objective).__name__}.evaluate returned "
                    f"{out.shape[0]} values for {X.shape[0]} rows"
                )
        except BaseException as error:  # deliberate: result() re-raises it
            future.set_exception(error)
        else:
            future.set_result((out, seconds))

    def _simulate_with_deadline(self, X: FloatArray) -> tuple[FloatArray, float]:
        """:meth:`_simulate_chunk` under the per-evaluation deadline, if set.

        The chunk runs alone on a fresh daemon thread, so its deadline
        starts when it starts.  A chunk past its deadline raises
        :class:`TimeoutError` here; its thread is abandoned, not killed,
        and runs on until the objective returns or the process exits.
        """
        future: Future[tuple[FloatArray, float]] = Future()
        timeout = self.config.timeout_seconds
        if timeout is None:
            self._simulate_chunk(X, future)
        else:
            threading.Thread(
                target=self._simulate_chunk, args=(X, future), daemon=True
            ).start()
            if not wait((future,), timeout=timeout).done:
                raise TimeoutError(f"evaluation exceeded {timeout}s")
        return future.result()

    def _rows_per_chunk(self, n: int) -> int:
        """Points per chunk when ``n`` points are pending.

        A vectorizing objective gets the whole round as one chunk; a
        timeout, or an objective that does not prefer batches, gets one
        point per chunk, so the deadline and any failure concern a single
        point.
        """
        if self.config.timeout_seconds is None and self.objective.prefers_batch:
            return n
        return 1

    def _run_chunks(
        self, pending: list[_Pending], size: int
    ) -> list[tuple[Any, BaseException | None]]:
        """Simulate one retry round as chunks of ``size`` points.

        Returns per-point ``(result, error)`` outcomes aligned with
        ``pending``.  A size-1 chunk's exception is that point's outcome;
        a multi-row chunk's exception re-runs its rows as size-1 chunks
        within the same round, so every point still resolves to one
        outcome per attempt.  Per-point seconds are the chunk mean (the
        total stays exact).
        """
        outcomes: list[tuple[Any, BaseException | None]] = []
        for lo in range(0, len(pending), size):
            chunk = pending[lo : lo + size]
            try:
                out, seconds = self._simulate_with_deadline(
                    np.stack([p.x for p in chunk])
                )
            except Exception as error:  # deliberate: a per-point outcome
                if len(chunk) == 1:
                    outcomes.append((None, error))
                else:
                    # one raising row poisons the whole vectorized call:
                    # re-run the chunk's rows one at a time
                    outcomes.extend(self._run_chunks(chunk, 1))
                continue
            per_point = seconds / len(chunk)
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
        delay = self.config.backoff_seconds * BACKOFF_FACTOR**attempt
        return delay * (1.0 + BACKOFF_JITTER * float(self._rng.uniform(-1.0, 1.0)))

    def _record_hit(
        self,
        pos: int,
        eval_id: int,
        digest: str,
        value: float,
        values: list[float | None],
    ) -> dict[str, Any]:
        """Bookkeeping for one point served without simulating here;
        returns its ``cache_hit`` event for the caller to log."""
        self.stats.n_cache_hits += 1
        values[pos] = value
        return {"event": "cache_hit", "id": eval_id, "digest": digest, "y": value}

    def _await_inflight(
        self,
        waiting: list[_Pending],
        values: list[float | None],
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
            hits: list[dict[str, Any]] = []
            for p in waiting:
                value = self.cache.wait_for(p.digest)
                if value is not None:
                    hits.append(
                        self._record_hit(p.pos, p.eval_id, p.digest, value, values)
                    )
                    continue
                status, hit = self.cache.lookup_or_claim([p.digest])[0]
                if status == CLAIM_HIT:
                    hits.append(
                        self._record_hit(p.pos, p.eval_id, p.digest, hit, values)
                    )
                elif status == CLAIM_OWNED:
                    owned.add(p.digest)
                    self.stats.n_cache_misses += 1
                    claimed.append(p)
                else:  # a third broker won the re-claim race; park again
                    parked.append(p)
            self._log(hits)
            if claimed:
                self._run_rounds(claimed, values, owned)
            waiting = parked

    # -- public API ----------------------------------------------------------

    def evaluate_batch(self, X: FloatArray) -> FloatArray:
        """The ``(n,)`` values of a ``(n, dim)`` batch, in row order.

        Raises :class:`EvaluationError` for a point whose retries ran out;
        every point that completed before it is already in the cache and
        logged ``completed``.
        """
        X = as_matrix(X, self.objective.dim)
        n = X.shape[0]
        before = replace(self.stats)
        self.stats.n_points += n
        values: list[float | None] = [None] * n

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
            hits: list[dict[str, Any]] = []
            for pos in range(n):
                digest = digests[pos]
                eval_id = self._next_id
                self._next_id += 1
                status, hit = claims[pos]
                if status == CLAIM_HIT:
                    hits.append(self._record_hit(pos, eval_id, digest, hit, values))
                elif status == CLAIM_OWNED:
                    first_pos[digest] = pos
                    owned.add(digest)
                    self.stats.n_cache_misses += 1
                    pending.append(_Pending(pos, eval_id, X[pos], digest))
                elif status == CLAIM_INFLIGHT:
                    waiting.append(_Pending(pos, eval_id, X[pos], digest))
                else:  # CLAIM_REPEAT: same point again within this batch —
                    # simulated once, then served like a cache hit
                    duplicates.append((pos, eval_id, digest))
            self._log(hits)

            if pending:
                self._run_rounds(pending, values, owned)
            if waiting:
                # own simulations are done — block on concurrent owners
                # (waiting *after* simulating keeps the fleet deadlock-free:
                # nobody waits while holding an unresolved claim)
                self._await_inflight(waiting, values, owned)

            # a repeat takes its first copy's value, not the cache's word:
            # an LRU-bounded cache may already have evicted it
            self._log(
                [
                    self._record_hit(
                        pos, eval_id, digest, values[first_pos[digest]], values
                    )
                    for pos, eval_id, digest in duplicates
                ]
            )
        finally:
            # release any claims still held (an exhausted point, a bug in
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

        return np.array(values, dtype=float)

    def _run_rounds(
        self,
        pending: list[_Pending],
        values: list[float | None],
        owned: set[str],
    ) -> None:
        attempt = 0
        while pending:
            self._log(
                {
                    "event": "dispatched",
                    "id": p.eval_id,
                    "attempt": attempt,
                    "digest": p.digest,
                }
                for p in pending
            )
            outcomes = self._run_chunks(
                pending, self._rows_per_chunk(len(pending))
            )
            failed: list[tuple[_Pending, BaseException]] = []
            for lo in range(0, len(pending), PERSIST_SLICE):
                failed += self._persist_slice(
                    pending[lo : lo + PERSIST_SLICE],
                    outcomes[lo : lo + PERSIST_SLICE],
                    attempt,
                    values,
                    owned,
                )
            if not failed:
                return
            if attempt >= self.config.max_retries:
                p, error = failed[0]
                raise EvaluationError(
                    f"evaluation {p.eval_id} failed after "
                    f"{self.config.max_retries + 1} attempts: {error}"
                ) from error
            delay = self._backoff_delay(attempt)
            self.stats.n_retries += len(failed)
            self._log(
                {
                    "event": "retried",
                    "id": p.eval_id,
                    "attempt": attempt + 1,
                    "backoff_seconds": delay,
                }
                for p, _ in failed
            )
            if delay > 0:
                time.sleep(delay)
            pending = [p for p, _ in failed]
            attempt += 1

    def _persist_slice(
        self,
        pending: list[_Pending],
        outcomes: list[tuple[Any, BaseException | None]],
        attempt: int,
        values: list[float | None],
        owned: set[str],
    ) -> list[tuple[_Pending, BaseException]]:
        """Record one slice of a round's outcomes; returns its failures.

        The slice's values are stored with one ``put_many``, which
        releases their claims, *before* its ``completed``/``failed``
        events go out in one ledger write — so a ``completed`` line never
        lands before its value is stored.
        """
        failed: list[tuple[_Pending, BaseException]] = []
        events: list[dict[str, Any]] = []
        done: list[str] = []
        done_values: list[float] = []
        for p, (result, error) in zip(pending, outcomes):
            self.stats.n_simulations += 1
            if error is None:
                value, seconds = result
                self.stats.n_completed += 1
                self.stats.eval_seconds += seconds
                values[p.pos] = value
                done.append(p.digest)
                done_values.append(value)
                # worker-measured duration, parented under whatever span
                # (iteration/init_design) is open right now — the id
                # attribute is the trace<->ledger join key
                self._tracer.record_span(
                    "evaluate",
                    seconds,
                    {"id": p.eval_id, "attempt": attempt, "y": value},
                )
                events.append(
                    {
                        "event": "completed",
                        "id": p.eval_id,
                        "attempt": attempt,
                        "digest": p.digest,
                        "x": p.x.tolist(),
                        "y": value,
                        "seconds": seconds,
                        "cached": False,
                    }
                )
            else:
                self.stats.n_attempt_failures += 1
                if isinstance(error, TimeoutError):
                    self.stats.n_timeouts += 1
                events.append(
                    {
                        "event": "failed",
                        "id": p.eval_id,
                        "attempt": attempt,
                        "error": type(error).__name__,
                        "message": str(error),
                    }
                )
                failed.append((p, error))
        if done:
            self.cache.put_many(done, done_values)
            owned.difference_update(done)
        self._log(events)
        return failed


@dataclass
class RuntimePolicy:
    """Bundled runtime wiring passed to every engine/sampler ``solve(...)``.

    A policy owns what should be *shared across* runs — the broker config,
    a result cache (deduplicating evaluations between methods that share an
    initial design), and a ledger (one event stream for the whole
    campaign).  Each ``solve`` builds its own broker from the policy via
    :func:`make_broker`.  The policy owns its ledger's file handle:
    :meth:`close`, or leaving a ``with`` block, closes it.
    """

    config: BrokerConfig = field(default_factory=BrokerConfig)
    cache: ResultCache | None = None
    ledger: RunLedger | None = None

    def close(self) -> None:
        """Close the ledger, if any; closing twice is harmless."""
        if self.ledger is not None:
            self.ledger.close()

    def __enter__(self) -> "RuntimePolicy":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @classmethod
    def shared(
        cls,
        ledger_path: str | Path | None = None,
        config: BrokerConfig | None = None,
        cache: ResultCache | None = None,
        cache_path: str | Path | None = None,
    ) -> "RuntimePolicy":
        """A policy with one shared cache (and optional ledger) for a campaign.

        ``cache`` reuses an existing store (e.g. the scheduler's persistent
        cross-campaign cache); ``cache_path`` opens a persistent
        :meth:`ResultCache.open` store at that directory.  Without either,
        a fresh in-memory cache is created.  A persistent cache holds no
        file open between writes, so the ledger is the one handle the
        policy keeps: run it in a ``with`` block, or call :meth:`close`.
        """
        if cache is not None and cache_path is not None:
            raise ValueError("pass cache or cache_path, not both")
        if cache_path is not None:
            cache = ResultCache.open(cache_path)  # numlint: disable=NL705
        return cls(
            config=config if config is not None else BrokerConfig(),
            cache=cache if cache is not None else ResultCache.in_memory(),
            ledger=RunLedger(ledger_path) if ledger_path is not None else None,
        )


def make_broker(
    objective: Objective,
    runtime: RuntimePolicy | None = None,
    method: str = "",
    telemetry: Telemetry | None = None,
) -> EvaluationBroker:
    """Build the broker one engine run uses, honoring a shared policy."""
    policy = runtime if runtime is not None else RuntimePolicy()
    campaign = {"method": method} if method else None
    return EvaluationBroker(
        objective,
        config=policy.config,
        cache=policy.cache,
        ledger=policy.ledger,
        campaign=campaign,
        telemetry=telemetry,
    )


__all__ = [
    "BrokerConfig",
    "BrokerStats",
    "EvaluationBroker",
    "EvaluationError",
    "NonFiniteResultError",
    "RuntimePolicy",
    "make_broker",
]
