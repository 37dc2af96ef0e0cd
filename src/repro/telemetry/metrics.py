"""Named counters with a deterministic snapshot API.

The registry is the counting side of the observability layer: spans
answer "where did the time go", the registry answers "how many" across
every campaign that shares it — simulations completed, cache hits and
misses, retries, timeouts, policy outcomes.  It keeps no count of its own:
each :class:`~repro.runtime.broker.EvaluationBroker` keeps its counts in
its :class:`~repro.runtime.broker.BrokerStats` and adds each batch's
delta here, so each counter is the sum of one ``BrokerStats`` field over
the brokers that report to the registry.  The perf harness consumes
:meth:`snapshot`, whose output is deterministic (sorted keys, plain
builtins) so two runs of the same seeded campaign produce byte-identical
snapshots.

Counters are created on first use (``registry.counter("x").inc()``); the
telemetry-off path uses the :data:`NULL_METRICS` singleton whose counter
is a shared no-op.  The registry and every counter are
``@thread_shared``: campaign threads over a shared scheduler count into
one registry, so get-or-create races and increments are serialized under
fine-grained per-object locks.  Snapshots taken while writers are still
running are internally consistent per counter; exact totals require the
writers to have joined, which is what the threaded stress suite pins.
"""

from __future__ import annotations

from typing import Any

from repro.utils.contracts import thread_shared
from repro.utils.sanitize_concurrency import make_lock


@thread_shared
class Counter:
    """A monotonically increasing integer count; ``inc`` is thread-safe."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self._lock = make_lock("metrics.Counter")
        self.value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += int(n)


class NullCounter:
    __slots__ = ()

    value = 0

    def inc(self, n: int = 1) -> None:
        pass


_NULL_COUNTER = NullCounter()


@thread_shared
class MetricsRegistry:
    """Named counters, created on first use.

    Get-or-create runs under the registry lock so two threads asking for
    the same name always receive the same counter — the losing thread of
    an unsynchronized race would otherwise count into an orphan.
    """

    def __init__(self) -> None:
        self._lock = make_lock("metrics.MetricsRegistry")
        self._counters: dict[str, Counter] = {}

    enabled = True

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter()
            return inst

    def snapshot(self) -> dict[str, Any]:
        """Deterministic plain-builtin view: ``{"counters": {name: n}}``.

        Keys are sorted.  The registry lock pins the counter set; values
        are read without their locks (reads are atomic under the GIL and
        exactness is only promised once writers have joined).
        """
        with self._lock:
            counters = sorted(self._counters.items())
        return {"counters": {name: inst.value for name, inst in counters}}


class NullMetrics:
    """No-op registry handed out when telemetry is off."""

    __slots__ = ()

    enabled = False

    def counter(self, name: str) -> NullCounter:
        return _NULL_COUNTER

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}}


NULL_METRICS = NullMetrics()


__all__ = [
    "Counter",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullCounter",
    "NullMetrics",
]
