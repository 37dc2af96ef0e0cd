"""Deterministic fault injection for exercising the evaluation runtime.

Real AMS simulation campaigns fail in mundane ways: license hiccups,
solver non-convergence, jobs that hang, corrupted measurements that come
back as NaN.  The runtime's retry/timeout/policy machinery exists for
those — and testing it needs failures that are *reproducible*.

:class:`FaultInjectingObjective` wraps any objective and decides, per
evaluation point, whether to misbehave.  The decision is a pure function of
``(plan.seed, point digest)``: the same point always draws the same fault
plan, regardless of evaluation order or parallelism.  Faults are
*transient* — each faulty point fails a fixed number of times (drawn from
the same stream) and then returns the true value — so a campaign run under
injection with enough retries completes with exactly the fault-free
``X``/``y``.  It is the one fault-injection wrapper: a circuit's faulty
objective is ``FaultInjectingObjective(bench.objective(name), plan)``,
built fresh per run so each run starts with empty attempt counters.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro._typing import FloatArray
from repro.runtime.cache import point_digest
from repro.runtime.objective import Objective, require_objective
from repro.utils.rng import as_generator


class TransientSimulationError(RuntimeError):
    """A simulated transient infrastructure failure (retryable)."""


@dataclass(frozen=True)
class FaultPlan:
    """What to inject, with which probabilities.

    ``failure_rate`` is the per-point probability of being faulty at all.
    A faulty point fails its first ``n_faults`` attempts (uniform in
    ``[1, max_faults_per_point]``), each failure drawn among three modes:
    a NaN return (probability ``nan_fraction``), a hang of ``hang_seconds``
    followed by a transient error (``hang_fraction``), or an immediate
    transient error (the remainder).
    """

    failure_rate: float = 0.3
    nan_fraction: float = 0.3
    hang_fraction: float = 0.0
    hang_seconds: float = 0.05
    max_faults_per_point: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError(f"failure_rate must be in [0, 1], got {self.failure_rate}")
        if self.nan_fraction < 0 or self.hang_fraction < 0:
            raise ValueError("fault mode fractions must be non-negative")
        if self.nan_fraction + self.hang_fraction > 1.0:
            raise ValueError("nan_fraction + hang_fraction must not exceed 1")
        if self.max_faults_per_point < 1:
            raise ValueError(
                f"max_faults_per_point must be >= 1, got {self.max_faults_per_point}"
            )


@dataclass(frozen=True)
class _PointFaults:
    """Resolved injection behavior for one point: modes of its failing attempts."""

    modes: tuple[str, ...]  # e.g. ("error", "nan"); empty = healthy point


class FaultInjectingObjective(Objective):
    """Wrap an objective with deterministic, per-point transient faults.

    The wrapper keeps a per-digest attempt counter (lock-protected, so the
    broker's worker threads can share it): attempt ``k`` of a point whose
    plan holds ``m`` faults misbehaves iff ``k < m``.  Identity
    (``cache_key``, ``dim``, ``bounds``) delegates to the wrapped
    objective — injected faults are an infrastructure property, not part of
    the function being computed, and cached values must match the clean run.
    """

    def __init__(self, inner: Objective, plan: FaultPlan | None = None) -> None:
        self._inner = require_objective(inner, "FaultInjectingObjective")
        self.plan = plan if plan is not None else FaultPlan()
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def dim(self) -> int:
        return self._inner.dim

    @property
    def bounds(self) -> FloatArray | None:
        return self._inner.bounds

    @property
    def cache_key(self) -> str:
        return self._inner.cache_key

    def _faults_for(self, digest: str) -> _PointFaults:
        material = hashlib.sha256(
            f"{self.plan.seed}|{digest}".encode("utf-8")
        ).digest()
        rng = as_generator(int.from_bytes(material[:8], "little"))
        if float(rng.uniform()) >= self.plan.failure_rate:
            return _PointFaults(modes=())
        n_faults = int(rng.integers(1, self.plan.max_faults_per_point + 1))
        modes = []
        for _ in range(n_faults):
            u = float(rng.uniform())
            if u < self.plan.nan_fraction:
                modes.append("nan")
            elif u < self.plan.nan_fraction + self.plan.hang_fraction:
                modes.append("hang")
            else:
                modes.append("error")
        return _PointFaults(modes=tuple(modes))

    def _next_attempt(self, digest: str) -> int:
        with self._lock:
            attempt = self._attempts.get(digest, 0)
            self._attempts[digest] = attempt + 1
        return attempt

    def evaluate(self, X: FloatArray) -> FloatArray:
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0], dtype=float)
        for i, x in enumerate(X):
            digest = point_digest(self.cache_key, x)
            faults = self._faults_for(digest)
            attempt = self._next_attempt(digest)
            if attempt < len(faults.modes):
                mode = faults.modes[attempt]
                if mode == "nan":
                    out[i] = float("nan")
                    continue
                if mode == "hang":
                    time.sleep(self.plan.hang_seconds)
                raise TransientSimulationError(
                    f"injected {mode} fault (attempt {attempt}) for point "
                    f"{digest[:12]}"
                )
            out[i] = float(self._inner.evaluate(x[None, :])[0])
        return out


class DelayObjective(Objective):
    """Wrap an objective so every evaluation takes real wall time.

    Pure pacing: values, identity (``cache_key``/``dim``/``bounds``) and
    determinism are untouched — the wrapper just sleeps
    ``delay_seconds`` per evaluated row before delegating.  The serve
    kill/resume tests use it to hold a campaign mid-flight long enough to
    SIGKILL the scheduler at a controlled point; the cached values still
    match an undelayed run bitwise.
    """

    def __init__(self, inner: Objective, delay_seconds: float) -> None:
        self._inner = require_objective(inner, "DelayObjective")
        if delay_seconds < 0:
            raise ValueError(
                f"delay_seconds must be >= 0, got {delay_seconds}"
            )
        self.delay_seconds = float(delay_seconds)

    @property
    def dim(self) -> int:
        return self._inner.dim

    @property
    def bounds(self) -> FloatArray | None:
        return self._inner.bounds

    @property
    def cache_key(self) -> str:
        return self._inner.cache_key

    @property
    def prefers_batch(self) -> bool:
        return self._inner.prefers_batch

    def evaluate(self, X: FloatArray) -> FloatArray:
        X = np.asarray(X, dtype=float)
        if self.delay_seconds > 0.0:
            time.sleep(self.delay_seconds * max(1, X.shape[0]))
        return self._inner.evaluate(X)


__all__ = [
    "DelayObjective",
    "FaultInjectingObjective",
    "FaultPlan",
    "TransientSimulationError",
]
