"""Per-layer timing for the traced pass, taken from outside the program.

Nothing here edits the program.  Layer times come from two places:

* the spans the program already emits (``gp_fit``, ``acq_opt``,
  ``iteration``, ``campaign``), read from an in-memory
  :class:`~repro.telemetry.trace.Tracer`;
* wrappers the benchmark installs around what it hands the program: the
  objective (a delegating :class:`TimedObjective`), and, for the length of
  one traced pass, the methods of :class:`ResultCache`, :class:`RunLedger`
  and :class:`EvaluationBroker` (restored when the pass ends).

Broker self time is ``evaluate_batch`` time minus the objective, cache and
ledger time spent inside it on the same thread.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from repro.runtime.broker import EvaluationBroker
from repro.runtime.cache import ResultCache
from repro.runtime.ledger import RunLedger
from repro.runtime.objective import Objective

#: Cache methods timed, and the layer key each one's time lands in.
_CACHE_METHODS = {
    "keys_for_batch": "cache.claim",
    "lookup_or_claim": "cache.claim",
    "put": "cache.put",
    "wait_for": "cache.wait",
    "abandon_many": "cache.claim",
}


class LayerProbe:
    """Accumulates seconds and call counts per layer across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.totals: dict[str, float] = defaultdict(float)

    def _in_batch(self) -> bool:
        return getattr(self._tls, "depth", 0) > 0

    def record(self, key: str, seconds: float, **counts: float) -> None:
        inner = self._in_batch() and key != "broker.batch"
        with self._lock:
            self.totals[key + "_s"] += seconds
            self.totals[key + "_calls"] += 1
            for name, value in counts.items():
                self.totals[f"{key}_{name}"] += value
            if inner:
                self.totals["broker.inner_s"] += seconds

    def _timed(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        probe = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                probe.record(key, time.perf_counter() - t0)

        return wrapper

    def _timed_batch(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        probe = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tls = probe._tls
            tls.depth = getattr(tls, "depth", 0) + 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tls.depth -= 1
                probe.record("broker.batch", time.perf_counter() - t0)

        return wrapper

    def objective(self, objective: Objective) -> "TimedObjective":
        return TimedObjective(objective, self)

    @contextmanager
    def installed(self) -> Iterator["LayerProbe"]:
        """Time the cache, ledger and broker methods while the block runs."""
        saved: list[tuple[type, str, Any]] = []

        def patch(cls: type, name: str, wrapper: Callable[..., Any]) -> None:
            saved.append((cls, name, cls.__dict__[name]))
            setattr(cls, name, wrapper)

        try:
            for name, key in _CACHE_METHODS.items():
                patch(ResultCache, name, self._timed(key, getattr(ResultCache, name)))
            patch(RunLedger, "append", self._timed("ledger.append", RunLedger.append))
            patch(
                EvaluationBroker,
                "evaluate_batch",
                self._timed_batch(EvaluationBroker.evaluate_batch),
            )
            yield self
        finally:
            for cls, name, original in reversed(saved):
                setattr(cls, name, original)


class TimedObjective(Objective):
    """Delegates to an objective and records each ``evaluate`` call's time.

    ``cache_key``, bounds and dispatch preference are the wrapped
    objective's own, so cache digests and broker dispatch are unchanged.
    """

    def __init__(self, inner: Objective, probe: LayerProbe) -> None:
        self._inner = inner
        self._probe = probe

    @property
    def dim(self) -> int:
        return self._inner.dim

    @property
    def bounds(self):  # type: ignore[override]
        return self._inner.bounds

    @property
    def cache_key(self) -> str:
        return self._inner.cache_key

    @property
    def prefers_batch(self) -> bool:
        return self._inner.prefers_batch

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        out = self._inner.evaluate(X)
        self._probe.record(
            "circuits.sim", time.perf_counter() - t0, points=len(X)
        )
        return out


def span_totals(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Sum span durations and feval attributes by span name."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        name = span["name"]
        out[name + "_s"] += float(span["dt"])
        out[name + "_n"] += 1
        fevals = span["attrs"].get("fevals")
        if fevals is not None:
            out[name + "_fevals"] += float(fevals)
    return out
