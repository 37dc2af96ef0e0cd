"""Tests for the telemetry layer: tracer, metrics, report.

The trace schema round-trip and nesting invariants are pinned here; the
campaign-level reconciliation against the :class:`RunLedger` lives in
``tests/test_campaign.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.telemetry import (
    NULL_METRICS,
    NULL_SPAN,
    NULL_TELEMETRY,
    NULL_TRACER,
    MetricsRegistry,
    Telemetry,
    TelemetryConfig,
    TraceSchemaError,
    Tracer,
    read_trace,
    resolve_telemetry,
)
from repro.telemetry.report import (
    main as report_main,
    phase_breakdown,
    render_report,
)


class FakeClock:
    """A deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


# -- tracer ------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("campaign") as root:
            with tracer.span("iteration", index=0) as it:
                with tracer.span("gp_fit"):
                    pass
            assert it.attrs == {"index": 0}
        tracer.close()
        by_name = {line["name"]: line for line in tracer.finished}
        assert by_name["gp_fit"]["parent"] == by_name["iteration"]["id"]
        assert by_name["iteration"]["parent"] == by_name["campaign"]["id"]
        assert by_name["campaign"]["parent"] is None
        # ids assigned at open: parents are numbered before children
        assert by_name["campaign"]["id"] < by_name["iteration"]["id"]
        assert root.span_id == by_name["campaign"]["id"]

    def test_record_span_parents_under_open_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("iteration"):
            tracer.record_span("evaluate", 0.5, {"id": "abc"})
        tracer.close()
        evaluate = next(s for s in tracer.finished if s["name"] == "evaluate")
        iteration = next(s for s in tracer.finished if s["name"] == "iteration")
        assert evaluate["parent"] == iteration["id"]
        assert evaluate["dt"] == 0.5
        assert evaluate["attrs"] == {"id": "abc"}

    def test_span_attrs_set_and_add(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("acq_opt") as span:
            span.set("fevals", 10)
            span.add("fevals", 5)
            span.add("clipped", 0.25)
        tracer.close()
        assert tracer.finished[0]["attrs"] == {"fevals": 15, "clipped": 0.25}

    def test_annotate_accumulates_on_innermost_open_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("campaign"):
            with tracer.span("iteration"):
                tracer.annotate("cache_hits", 3)
                tracer.annotate("cache_hits", 2)
                tracer.annotate("cache_misses", 4)
        tracer.close()
        iteration = next(
            s for s in tracer.finished if s["name"] == "iteration"
        )
        campaign = next(s for s in tracer.finished if s["name"] == "campaign")
        assert iteration["attrs"] == {"cache_hits": 5, "cache_misses": 4}
        assert campaign["attrs"] == {}

    def test_annotate_without_open_span_is_noop(self):
        tracer = Tracer(clock=FakeClock())
        tracer.annotate("cache_hits", 1)  # nothing open: silently dropped
        tracer.close()
        assert tracer.finished == []

    def test_close_with_open_span_raises(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.span("campaign")
        span.__enter__()
        with pytest.raises(TraceSchemaError, match="still open"):
            tracer.close()

    def test_out_of_order_close_raises(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(TraceSchemaError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_durations_are_monotonic_deltas(self):
        clock = FakeClock(step=2.0)
        tracer = Tracer(clock=clock)
        with tracer.span("campaign"):
            pass
        tracer.close()
        line = tracer.finished[0]
        assert line["dt"] == pytest.approx(2.0)
        assert line["t0"] >= 0.0


class TestTraceRoundTrip:
    def _write_trace(self, path: Path) -> Tracer:
        tracer = Tracer(path, clock=FakeClock())
        with tracer.span("campaign", engine="RemboBO"):
            with tracer.span("iteration", index=0):
                tracer.record_span("evaluate", 1.0, {"id": "x1", "y": -0.2})
        tracer.close()
        return tracer

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        tracer = self._write_trace(path)
        trace = read_trace(path)
        assert trace.version == 1
        assert len(trace) == len(tracer.finished) == 3
        (root,) = trace.roots()
        assert root.name == "campaign"
        assert root.attrs == {"engine": "RemboBO"}
        (evaluate,) = trace.named("evaluate")
        assert evaluate.attrs["id"] == "x1"
        (iteration,) = trace.named("iteration")
        assert evaluate.parent_id == iteration.span_id
        assert trace.children(iteration.span_id) == [evaluate]
        assert evaluate.t1 == pytest.approx(evaluate.t0 + evaluate.dt)

    def test_header_line_first(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        self._write_trace(path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"kind": "trace", "version": 1}

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        self._write_trace(path)
        with path.open("a") as fh:
            fh.write('{"kind": "span", "name": "tru')  # killed mid-write
        assert len(read_trace(path)) == 3

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind":"span","name":"a","id":1,"parent":null,"t0":0,"dt":1,'
            '"attrs":{}}\n'
        )
        with pytest.raises(TraceSchemaError, match="header"):
            read_trace(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        span = '{"kind":"span","name":"a","id":1,"parent":null,"t0":0,"dt":1,"attrs":{}}'
        path.write_text('{"kind":"trace","version":1}\n' + span + "\n" + span + "\n")
        with pytest.raises(TraceSchemaError, match="duplicate span id"):
            read_trace(path)

    def test_parent_must_open_before_child(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind":"trace","version":1}\n'
            '{"kind":"span","name":"a","id":1,"parent":2,"t0":0,"dt":1,"attrs":{}}\n'
            '{"kind":"span","name":"b","id":2,"parent":null,"t0":0,"dt":1,"attrs":{}}\n'
        )
        with pytest.raises(TraceSchemaError, match="non-ancestor parent"):
            read_trace(path)

    def test_unknown_parent_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind":"trace","version":1}\n'
            '{"kind":"span","name":"a","id":7,"parent":3,"t0":0,"dt":1,"attrs":{}}\n'
        )
        with pytest.raises(TraceSchemaError, match="unknown parent"):
            read_trace(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"trace","version":99}\n')
        with pytest.raises(TraceSchemaError, match="version"):
            read_trace(path)

    def test_negative_duration_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind":"trace","version":1}\n'
            '{"kind":"span","name":"a","id":1,"parent":null,"t0":0,"dt":-1,'
            '"attrs":{}}\n'
        )
        with pytest.raises(TraceSchemaError, match="negative duration"):
            read_trace(path)


# -- metrics -----------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_sum_increments(self):
        registry = MetricsRegistry()
        registry.counter("evaluations.completed").inc()
        registry.counter("evaluations.completed").inc(2)
        assert registry.snapshot() == {
            "counters": {"evaluations.completed": 3}
        }

    def test_snapshot_is_deterministic_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # plain builtins only

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")


class TestNullObjects:
    def test_null_tracer_hands_out_shared_span(self):
        assert NULL_TRACER.span("anything", a=1) is NULL_SPAN
        with NULL_TRACER.span("x") as span:
            span.set("k", 1)
            span.add("k", 1)
        NULL_TRACER.record_span("evaluate", 1.0)
        NULL_TRACER.close()
        assert not NULL_TRACER.enabled

    def test_null_metrics_share_instruments(self):
        assert NULL_METRICS.counter("a") is NULL_METRICS.counter("b")
        NULL_METRICS.counter("a").inc()
        assert NULL_METRICS.counter("a").value == 0
        assert NULL_METRICS.snapshot() == {"counters": {}}

    def test_resolve_telemetry(self, tmp_path):
        assert resolve_telemetry(None) is NULL_TELEMETRY
        live = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        assert resolve_telemetry(live) is live
        # a config belongs to an owner that materializes and closes it
        with pytest.raises(
            TypeError, match="Campaign, run_campaign_spec or CampaignScheduler"
        ):
            resolve_telemetry(TelemetryConfig(trace_path=tmp_path / "t.jsonl"))
        assert not (tmp_path / "t.jsonl").exists()
        assert not NULL_TELEMETRY.enabled


# -- report CLI --------------------------------------------------------------


class TestReport:
    def _trace_file(self, tmp_path) -> Path:
        path = tmp_path / "run.trace.jsonl"
        tracer = Tracer(path, clock=FakeClock())
        with tracer.span("campaign"):
            with tracer.span("iteration", index=0):
                with tracer.span("gp_fit"):
                    pass
                with tracer.span("acq_opt") as acq:
                    acq.set("fevals", 120)
                tracer.record_span("evaluate", 0.5, {"id": "a"})
                tracer.record_span("evaluate", 0.25, {"id": "b"})
        tracer.close()
        return path

    def test_phase_breakdown(self, tmp_path):
        trace = read_trace(self._trace_file(tmp_path))
        rows = {row.name: row for row in phase_breakdown(trace)}
        assert rows["evaluate"].count == 2
        assert rows["evaluate"].total_seconds == pytest.approx(0.75)
        assert rows["acq_opt"].evaluations == 120
        assert rows["campaign"].share == pytest.approx(1.0)
        # every child phase fits inside the campaign wall clock
        assert all(row.share <= 1.0 + 1e-9 for row in rows.values())

    def test_render_report_mentions_phases(self, tmp_path):
        trace = read_trace(self._trace_file(tmp_path))
        text = render_report(trace)
        for phase in ("campaign", "iteration", "gp_fit", "acq_opt", "evaluate"):
            assert phase in text

    def test_cache_hit_rate_columns(self, tmp_path):
        path = tmp_path / "hits.trace.jsonl"
        tracer = Tracer(path, clock=FakeClock())
        with tracer.span("campaign"):
            with tracer.span("iteration", index=0):
                tracer.annotate("cache_hits", 3)
                tracer.annotate("cache_misses", 1)
            with tracer.span("iteration", index=1):
                tracer.annotate("cache_hits", 1)
                tracer.annotate("cache_misses", 3)
        tracer.close()
        rows = {
            row.name: row for row in phase_breakdown(read_trace(path))
        }
        assert rows["iteration"].cache_hits == 4
        assert rows["iteration"].cache_misses == 4
        assert rows["iteration"].cache_rate == pytest.approx(0.5)
        # phases without cache annotations stay untracked, not 0%
        assert rows["campaign"].cache_rate is None
        text = render_report(read_trace(path))
        assert "hit rate" in text
        assert "50.0%" in text

    def test_cli_main(self, tmp_path, capsys):
        path = self._trace_file(tmp_path)
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "campaign wall clock" in out
        assert "evaluate" in out
