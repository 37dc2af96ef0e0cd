"""The telemetry bundle threaded through engines, brokers and samplers.

:class:`Telemetry` pairs a tracer with a metrics registry behind one
object so every instrumented layer takes a single ``telemetry=`` argument.
Two spellings reach an engine or a broker:

* ``None`` — telemetry off; resolves to :data:`NULL_TELEMETRY`, whose
  tracer and metrics are shared no-op singletons (identity objects, the
  <2%-overhead path);
* a live :class:`Telemetry` — shared across runs of one campaign; whoever
  built it closes it.

A :class:`TelemetryConfig` (declarative: where the trace goes) is
materialized only by the two owners that also close what they build:
:func:`~repro.campaign.run_campaign_spec` (behind
:class:`~repro.campaign.Campaign`) and
:class:`~repro.serve.scheduler.CampaignScheduler`.  An engine or broker
handed one raises ``TypeError``, since nothing there would close its
trace file.
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

#: What the campaign owners (``CampaignSpec``, ``Campaign``,
#: ``run_campaign_spec``, ``CampaignScheduler``) accept as ``telemetry``.
TelemetryLike = Union[Telemetry, TelemetryConfig, None]


def resolve_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Normalize an engine's or broker's ``telemetry=`` argument.

    ``None`` resolves to the shared :data:`NULL_TELEMETRY` (off); a live
    :class:`Telemetry` passes through.  A :class:`TelemetryConfig` raises
    ``TypeError``: it belongs to an owner that materializes and closes it.
    """
    if telemetry is None:
        return NULL_TELEMETRY
    if isinstance(telemetry, TelemetryConfig):
        raise TypeError(
            "a TelemetryConfig is materialized by its owner: pass it to "
            "Campaign, run_campaign_spec or CampaignScheduler, or pass a "
            "live Telemetry (Telemetry.from_config) and close it yourself"
        )
    return telemetry


__all__ = [
    "NULL_TELEMETRY",
    "Telemetry",
    "TelemetryConfig",
    "TelemetryLike",
    "resolve_telemetry",
]
