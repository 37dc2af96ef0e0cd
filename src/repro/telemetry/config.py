"""The telemetry bundle threaded through engines, brokers and samplers.

:class:`Telemetry` pairs a tracer with a metrics registry behind one
object so every instrumented layer takes a single ``telemetry=`` argument.
Three spellings reach an engine:

* ``None`` — telemetry off; resolves to :data:`NULL_TELEMETRY`, whose
  tracer and metrics are shared no-op singletons (identity objects, the
  <2%-overhead path);
* a :class:`TelemetryConfig` — declarative: where the trace goes; the
  engine (or :class:`~repro.campaign.Campaign`) materializes it;
* a live :class:`Telemetry` — shared across runs of one campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

from repro.telemetry.metrics import MetricsRegistry, NULL_METRICS, NullMetrics
from repro.telemetry.trace import NULL_TRACER, NullTracer, Tracer


@dataclass(frozen=True)
class TelemetryConfig:
    """Declarative telemetry wiring for a campaign.

    Parameters
    ----------
    trace_path:
        JSONL trace destination; ``None`` keeps spans in memory only
        (still queryable through ``telemetry.tracer.finished``).  Each
        materialized tracer overwrites the file, so it holds the spans of
        the latest run only: rerunning a campaign or resuming a service
        on the same path replaces the previous trace.  The
        :class:`~repro.runtime.ledger.RunLedger` is the durable record of
        a campaign; the trace is one run's timing.
    """

    trace_path: str | Path | None = None


class Telemetry:
    """A live tracer + metrics pair; context manager closes the tracer."""

    def __init__(
        self,
        tracer: "Tracer | NullTracer | None" = None,
        metrics: "MetricsRegistry | NullMetrics | None" = None,
    ) -> None:
        self.tracer: Tracer | NullTracer = (
            tracer if tracer is not None else NULL_TRACER
        )
        self.metrics: MetricsRegistry | NullMetrics = (
            metrics if metrics is not None else NULL_METRICS
        )

    @property
    def enabled(self) -> bool:
        return bool(self.tracer.enabled or self.metrics.enabled)

    @classmethod
    def from_config(cls, config: TelemetryConfig) -> "Telemetry":
        return cls(tracer=Tracer(config.trace_path), metrics=MetricsRegistry())

    def snapshot(self) -> dict[str, Any]:
        """The metrics snapshot (deterministic; empty when off)."""
        return self.metrics.snapshot()

    def close(self) -> None:
        self.tracer.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: The telemetry-off singleton: no-op tracer, no-op metrics.
NULL_TELEMETRY = Telemetry()

#: What instrumented call sites accept as their ``telemetry`` argument.
TelemetryLike = Union[Telemetry, TelemetryConfig, None]


def resolve_telemetry(telemetry: TelemetryLike) -> Telemetry:
    """Normalize a ``telemetry=`` argument to a live :class:`Telemetry`.

    ``None`` resolves to the shared :data:`NULL_TELEMETRY` (off);
    a :class:`TelemetryConfig` is materialized fresh — the caller owns
    closing it (``with resolve_telemetry(cfg) as tele: ...``).
    """
    if telemetry is None:
        return NULL_TELEMETRY
    if isinstance(telemetry, TelemetryConfig):
        return Telemetry.from_config(telemetry)
    return telemetry


__all__ = [
    "NULL_TELEMETRY",
    "Telemetry",
    "TelemetryConfig",
    "TelemetryLike",
    "resolve_telemetry",
]
