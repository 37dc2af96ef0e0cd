"""Per-phase breakdown of a campaign trace: ``python -m repro.telemetry.report``.

Renders where a campaign spent its wall clock and its evaluations from a
JSONL trace file written by the :class:`~repro.telemetry.trace.Tracer`::

    python -m repro.telemetry.report runs/uvlo.trace.jsonl
    python -m repro.telemetry.report runs/uvlo.trace.jsonl --ledger runs/uvlo.jsonl

With ``--ledger`` the report also reconciles the trace against the
:class:`~repro.runtime.ledger.RunLedger` event stream (evaluation spans
vs ``completed`` events — the two are joinable on the shared ``id``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Sequence

from repro.telemetry.trace import Trace, TraceSpan, read_trace
from repro.utils.tables import render_table
from repro.utils.timing import format_duration


@dataclass(frozen=True)
class PhaseRow:
    """Aggregate of every span sharing one name."""

    name: str
    count: int
    total_seconds: float
    mean_seconds: float
    share: float  # fraction of summed campaign-span time
    evaluations: int  # summed "fevals"/eval-count attributes, if any
    cache_hits: int  # summed broker "cache_hits" attributes
    cache_misses: int  # summed broker "cache_misses" attributes

    @property
    def cache_rate(self) -> float | None:
        """Fraction of intake rows served from cache, or None if untracked."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return None
        return self.cache_hits / lookups


#: Attribute keys that count evaluations, searched in priority order.
_EVAL_ATTRS = ("fevals", "n_evaluations", "n_completed")


def _span_evaluations(span: TraceSpan) -> int:
    for key in _EVAL_ATTRS:
        value = span.attrs.get(key)
        if isinstance(value, (int, float)):
            return int(value)
    return 0


def _span_counter(span: TraceSpan, key: str) -> int:
    value = span.attrs.get(key)
    return int(value) if isinstance(value, (int, float)) else 0


def phase_breakdown(trace: Trace) -> list[PhaseRow]:
    """Aggregate spans by name, largest total time first.

    ``share`` is relative to the summed duration of the ``campaign``
    root spans (falling back to the summed root spans of any name when a
    trace was produced without a campaign wrapper).  Cache hit/miss
    counters are the broker's batched-intake annotations
    (:meth:`~repro.telemetry.trace.Tracer.annotate`), so the hit-rate
    column shows where the result cache absorbed simulations.
    """
    roots = trace.named("campaign") or trace.roots()
    wall = sum(s.dt for s in roots) or 1.0
    totals: dict[str, list[float]] = {}
    for span in trace:
        cell = totals.setdefault(span.name, [0, 0.0, 0, 0, 0])
        cell[0] += 1
        cell[1] += span.dt
        cell[2] += _span_evaluations(span)
        cell[3] += _span_counter(span, "cache_hits")
        cell[4] += _span_counter(span, "cache_misses")
    rows = [
        PhaseRow(
            name=name,
            count=int(cell[0]),
            total_seconds=cell[1],
            mean_seconds=cell[1] / cell[0],
            share=cell[1] / wall,
            evaluations=int(cell[2]),
            cache_hits=int(cell[3]),
            cache_misses=int(cell[4]),
        )
        for name, cell in totals.items()
    ]
    rows.sort(key=lambda r: (-r.total_seconds, r.name))
    return rows


def render_report(trace: Trace, title: str | None = None) -> str:
    """The per-phase table the CLI prints."""
    rows = phase_breakdown(trace)
    body = [
        [
            row.name,
            row.count,
            format_duration(row.total_seconds),
            f"{1000.0 * row.mean_seconds:.2f}ms",
            f"{100.0 * row.share:.1f}%",
            row.evaluations or "-",
            row.cache_hits if row.cache_rate is not None else "-",
            (
                f"{100.0 * row.cache_rate:.1f}%"
                if row.cache_rate is not None
                else "-"
            ),
        ]
        for row in rows
    ]
    return render_table(
        [
            "phase",
            "spans",
            "total",
            "mean",
            "% of campaign",
            "evals",
            "hits",
            "hit rate",
        ],
        body,
        title=title,
    )


def _count(runs: list[list[dict]], kinds: tuple[str, ...]) -> int:
    return sum(1 for run in runs for e in run if e.get("event") in kinds)


def reconcile_with_ledger(trace: Trace, ledger_path: str) -> list[str]:
    """Compare evaluation spans against the ledger's completed events.

    A trace file holds one run, while a resumed campaign's ledger holds
    the killed run too: only the ledger's last N runs are compared, N
    being the trace's ``campaign`` span count (at least 1).
    """
    from repro.runtime.ledger import read_ledger

    runs = read_ledger(ledger_path).runs()
    traced = runs[-max(1, len(trace.named("campaign"))):]
    n_spans = len(trace.named("evaluate"))
    n_completed = _count(traced, ("completed",))
    lines = [
        f"evaluate spans:          {n_spans}",
        f"ledger runs compared:    {len(traced)} of {len(runs)}",
        f"ledger completed events: {n_completed}",
        f"ledger cache hits:       {_count(traced, ('cache_hit',))}",
    ]
    if n_spans == n_completed:
        lines.append("trace and ledger agree on the simulation count")
    else:
        lines.append(
            "MISMATCH: trace and ledger disagree on the simulation count"
        )
    return lines


def _final_run_evaluations(ledger_path: str) -> int:
    """Observations the ledger's *final* run made.

    A resumed campaign's ledger holds the interrupted run plus the
    resumed one appended in place; only the last run belongs to the run
    the scheduler span measured.
    """
    from repro.runtime.ledger import read_ledger

    return _count(
        read_ledger(ledger_path).runs()[-1:],
        ("completed", "cache_hit", "penalized"),
    )


def scheduler_report(trace: Trace, runs_dir: str) -> str:
    """Per-campaign queue wait / latency, reconciled against the ledgers.

    One row per ``scheduled_campaign`` span; the ``ledger`` column
    recounts the campaign's observations (``completed`` + ``cache_hit``
    + ``penalized`` events of its final run) from
    ``RUNS_DIR/<campaign>.jsonl`` and must match the span's recorded
    ``n_evaluations``.
    """
    from pathlib import Path

    body = []
    for span in trace.named("scheduled_campaign"):
        name = str(span.attrs.get("campaign", "?"))
        wait = span.attrs.get("queue_wait_seconds")
        n_evals = span.attrs.get("n_evaluations")
        ledger_path = Path(runs_dir) / f"{name}.jsonl"
        if ledger_path.exists():
            from_ledger: int | str = _final_run_evaluations(str(ledger_path))
        else:
            from_ledger = "-"
        agree = (
            "ok"
            if isinstance(from_ledger, int)
            and isinstance(n_evals, (int, float))
            and int(n_evals) == from_ledger
            else "MISMATCH"
        )
        body.append(
            [
                name,
                "yes" if span.attrs.get("resumed") else "no",
                (
                    format_duration(float(wait))
                    if isinstance(wait, (int, float))
                    else "-"
                ),
                format_duration(span.dt),
                int(n_evals) if isinstance(n_evals, (int, float)) else "-",
                from_ledger,
                agree,
            ]
        )
    body.sort(key=lambda row: str(row[0]))
    return render_table(
        [
            "campaign",
            "resumed",
            "queue wait",
            "latency",
            "evals",
            "ledger",
            "reconciled",
        ],
        body,
        title=f"Scheduled campaigns: {runs_dir}",
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Per-phase time/eval breakdown of a campaign trace.",
    )
    parser.add_argument("trace", help="JSONL trace file written by a Tracer")
    parser.add_argument(
        "--ledger",
        default=None,
        help="optional RunLedger JSONL to reconcile evaluation counts against",
    )
    parser.add_argument(
        "--runs-dir",
        default=None,
        help=(
            "scheduler runs directory: adds a per-campaign queue-wait/"
            "latency section reconciled against each campaign's ledger"
        ),
    )
    args = parser.parse_args(argv)
    trace = read_trace(args.trace)
    print(render_report(trace, title=f"Campaign trace: {args.trace}"))
    campaigns = trace.named("campaign")
    if campaigns:
        wall = sum(s.dt for s in campaigns)
        print(f"\ncampaign wall clock: {format_duration(wall)}")
    if args.runs_dir is not None:
        print()
        print(scheduler_report(trace, args.runs_dir))
    if args.ledger is not None:
        print()
        for line in reconcile_with_ledger(trace, args.ledger):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
