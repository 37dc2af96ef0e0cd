"""Zero-dependency observability for the BO stack.

Three pieces, one import surface, one record per measurement:

* :mod:`repro.telemetry.trace` — nested spans with monotonic durations,
  written as JSONL joinable with the :class:`~repro.runtime.ledger.RunLedger`;
  spans are the only record of where time went;
* :mod:`repro.telemetry.metrics` — named counters summing each broker's
  counts across campaigns, with a deterministic
  :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`;
* :mod:`repro.telemetry.report` — the ``python -m repro.telemetry.report``
  CLI rendering a per-phase time/eval breakdown from a trace.

Instrumented call sites take a single ``telemetry=`` argument resolved by
:func:`resolve_telemetry`; ``None`` means off via shared no-op singletons.
"""

from __future__ import annotations

from repro.telemetry.config import (
    NULL_TELEMETRY,
    Telemetry,
    TelemetryConfig,
    TelemetryLike,
    resolve_telemetry,
)
from repro.telemetry.metrics import (
    NULL_METRICS,
    Counter,
    MetricsRegistry,
    NullMetrics,
)
from repro.telemetry.trace import (
    NULL_SPAN,
    NULL_TRACER,
    TRACE_VERSION,
    NullSpan,
    NullTracer,
    SpanHandle,
    Trace,
    Tracer,
    TraceSchemaError,
    TraceSpan,
    read_trace,
)

__all__ = [
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "TRACE_VERSION",
    "Counter",
    "MetricsRegistry",
    "NullMetrics",
    "NullSpan",
    "NullTracer",
    "SpanHandle",
    "Telemetry",
    "TelemetryConfig",
    "TelemetryLike",
    "Trace",
    "TraceSchemaError",
    "TraceSpan",
    "Tracer",
    "read_trace",
    "resolve_telemetry",
]
