"""Structured tracing: nested spans over one campaign, written as JSONL.

A *span* is a named, timed section of a campaign — ``campaign >
iteration > gp_fit / acq_opt / evaluate`` — with a monotonic duration
(``time.perf_counter`` deltas, never wall clock: the NL401 invariant) and
a dict of structured attributes (LML at convergence, acquisition fevals,
clip-projection fraction, cache hit counts, ...).  Spans nest through an
explicit *per-thread* stack owned by the :class:`Tracer` (a
``threading.local``): each campaign/worker thread sees its own nesting, so
``tracer.span(...)`` context managers express the hierarchy directly even
when several campaign threads share one tracer, while work measured
elsewhere (the broker times each simulation where it runs) enters
after the fact through :meth:`Tracer.record_span` and is parented to
whatever span the *calling* thread has open.  Id assignment and line
emission are serialized under the tracer lock, so concurrent spans get
unique ids and whole JSONL lines; the tracer is ``@thread_shared``
(DESIGN.md §13).

The trace file is one JSON object per line, flushed per line like the
:class:`~repro.runtime.ledger.RunLedger` so a killed campaign leaves a
valid prefix, read by the same torn-line rule (:mod:`repro.utils.jsonl`).
Spans carry the broker's evaluation ids in their attributes, which is
what makes a trace joinable against the ledger's event stream (both
sides name the same ``id``).

Trace schema (version 1)
------------------------
``{"kind": "trace", "version": 1}``
    Header, first line of every file.
``{"kind": "span", "name": ..., "id": ..., "parent": ..., "t0": ...,
"dt": ..., "attrs": {...}}``
    One completed span.  ``id`` is unique and increasing in emission
    order, ``parent`` is the enclosing span's id (``null`` for roots),
    ``t0`` is the start offset in seconds from the tracer's epoch and
    ``dt`` the duration.  Spans are emitted at *close*, so parents appear
    after their children; ids are assigned at *open*, so a parent's id is
    always smaller than its children's.

When telemetry is off the engines hold the module-level
:data:`NULL_TRACER`, whose ``span``/``record_span`` are no-ops returning a
shared null handle — the overhead of instrumentation is one method call
per phase, which is what keeps the telemetry-off path within the perf
budget (same pattern as the PR 3 sanitizer).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable, Iterator

from repro.utils.contracts import thread_shared
from repro.utils.jsonl import ENCODER, read_records
from repro.utils.sanitize_concurrency import make_lock

#: Schema version stamped on the trace header line.
TRACE_VERSION = 1


class TraceSchemaError(ValueError):
    """A trace file violates the span schema or nesting invariants."""


class SpanHandle:
    """One open span; a context manager that closes (and emits) it.

    Attributes set through :meth:`set` / :meth:`add` land in the span's
    ``attrs`` dict on the emitted JSONL line.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._t0 = 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach one structured attribute to the span."""
        self.attrs[key] = value

    def add(self, key: str, value: float) -> None:
        """Accumulate a numeric attribute (missing keys start at 0)."""
        self.attrs[key] = self.attrs.get(key, 0) + value

    def __enter__(self) -> "SpanHandle":
        self._t0 = self._tracer._open(self)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self, self._t0)


class NullSpan:
    """The shared no-op span handle used when telemetry is off."""

    __slots__ = ()

    name = ""
    span_id: int | None = None
    parent_id: int | None = None

    def set(self, key: str, value: Any) -> None:
        pass

    def add(self, key: str, value: float) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


class NullTracer:
    """Identity tracer: every operation is a no-op.

    Engines and the broker call the tracer unconditionally; holding this
    object instead of a real :class:`Tracer` is what "telemetry off"
    means.  All methods intentionally avoid allocation.
    """

    __slots__ = ()

    enabled = False

    @property
    def current_id(self) -> int | None:
        return None

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return NULL_SPAN

    def record_span(
        self,
        name: str,
        seconds: float,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        pass

    def annotate(self, key: str, value: float) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


#: Shared singletons handed out on the telemetry-off path.
NULL_SPAN = NullSpan()
NULL_TRACER = NullTracer()


class _ThreadSpans(threading.local):
    """Per-thread open-span state: ids for parenting, handles for annotate."""

    def __init__(self) -> None:
        self.ids: list[int] = []
        self.handles: list[SpanHandle] = []


@thread_shared
class Tracer:
    """Emits nested spans as JSONL; see the module docstring for schema.

    Thread model: span *nesting* is per thread (``self._tls`` holds each
    thread's open-span stack, so worker spans nest correctly under that
    worker's own spans and never under a sibling thread's), while id
    assignment and line emission are serialized under ``self._lock`` so
    ids stay unique and JSONL lines whole.

    Parameters
    ----------
    path:
        Trace file destination, overwritten when the tracer emits its
        first span.  ``None`` keeps the spans in memory only
        (``finished``), which the tests and :class:`~repro.campaign.Campaign`
        use for reconciliation without touching disk.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    enabled = True

    def __init__(
        self,
        path: str | Path | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._lock = make_lock("telemetry.Tracer")
        self.path = Path(path) if path is not None else None
        self._clock = clock
        self._epoch = clock()
        self._fh: IO[str] | None = None
        self._next_id = 1
        self._tls = _ThreadSpans()
        self._n_open = 0
        #: Every emitted span line, in emission order (kept even when
        #: writing to a file, so reconciliation never re-reads the disk).
        self.finished: list[dict[str, Any]] = []

    # -- span lifecycle ------------------------------------------------------

    @property
    def current_id(self) -> int | None:
        """Id of the calling thread's innermost open span (parent for new)."""
        ids = self._tls.ids
        return ids[-1] if ids else None

    def span(self, name: str, **attrs: Any) -> SpanHandle:
        """Open a nested span as a context manager."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return SpanHandle(self, name, span_id, self.current_id, attrs)

    def _open(self, handle: SpanHandle) -> float:
        self._tls.ids.append(handle.span_id)
        self._tls.handles.append(handle)
        with self._lock:
            self._n_open += 1
        return self._clock() - self._epoch

    def _close(self, handle: SpanHandle, t0: float) -> None:
        ids = self._tls.ids
        if not ids or ids[-1] != handle.span_id:
            raise TraceSchemaError(
                f"span {handle.name!r} closed out of order (open stack "
                f"{ids})"
            )
        ids.pop()
        self._tls.handles.pop()
        with self._lock:
            self._n_open -= 1
        self._emit(
            handle.name,
            handle.span_id,
            handle.parent_id,
            t0,
            (self._clock() - self._epoch) - t0,
            handle.attrs,
        )

    def record_span(
        self,
        name: str,
        seconds: float,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        """Record an already-measured span under the current open span.

        Used for work timed elsewhere — the broker measures each
        simulation where it runs (on a deadline thread under a timeout)
        and reports the duration here from the calling thread.  The start offset is reconstructed
        as ``now - seconds``.
        """
        now = self._clock() - self._epoch
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        t0 = max(0.0, now - float(seconds))
        self._emit(name, span_id, self.current_id, t0, float(seconds), attrs or {})

    def annotate(self, key: str, value: float) -> None:
        """Accumulate a numeric attribute onto the innermost *open* span.

        Lets code that does not own a span handle (the broker annotating
        the engine's enclosing ``iteration``/``init_design`` span with
        cache-hit counts) attach attributes without threading handles
        through every call site.  The innermost span is the *calling
        thread's* — a worker never annotates a sibling thread's span.  No
        open span means nothing to annotate — the call is a silent no-op,
        mirroring :class:`NullTracer`.
        """
        handles = self._tls.handles
        if handles:
            handles[-1].add(key, value)

    # -- emission ------------------------------------------------------------

    def _emit(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        t0: float,
        dt: float,
        attrs: dict[str, Any],
    ) -> None:
        line = {
            "kind": "span",
            "name": name,
            "id": span_id,
            "parent": parent_id,
            "t0": t0,
            "dt": dt,
            "attrs": attrs,
        }
        text = ENCODER.encode(line) + "\n"
        with self._lock:
            self.finished.append(line)
            if self.path is not None:
                if self._fh is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    # one file holds one tracer's spans: appending to an
                    # earlier run's file would add a second header
                    self._fh = self.path.open("w", encoding="utf-8")
                    header = {"kind": "trace", "version": TRACE_VERSION}
                    self._fh.write(ENCODER.encode(header) + "\n")
                self._fh.write(text)
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._n_open:
                raise TraceSchemaError(
                    f"tracer closed with {self._n_open} span(s) still open"
                )
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# -- reading -----------------------------------------------------------------


@dataclass(frozen=True)
class TraceSpan:
    """One parsed span line."""

    name: str
    span_id: int
    parent_id: int | None
    t0: float
    dt: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def t1(self) -> float:
        return self.t0 + self.dt


@dataclass
class Trace:
    """A parsed trace: spans in emission order plus lookup helpers."""

    version: int
    spans: list[TraceSpan]

    def __post_init__(self) -> None:
        self._by_id = {s.span_id: s for s in self.spans}

    def get(self, span_id: int) -> TraceSpan:
        return self._by_id[span_id]

    def roots(self) -> list[TraceSpan]:
        """Top-level spans (no parent), usually one ``campaign``."""
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span_id: int) -> list[TraceSpan]:
        return [s for s in self.spans if s.parent_id == span_id]

    def named(self, name: str) -> list[TraceSpan]:
        return [s for s in self.spans if s.name == name]

    def __iter__(self) -> Iterator[TraceSpan]:
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)


def _parse_span(obj: dict[str, Any], lineno: int) -> TraceSpan:
    try:
        name = obj["name"]
        span_id = obj["id"]
        parent = obj["parent"]
        t0 = obj["t0"]
        dt = obj["dt"]
        attrs = obj.get("attrs", {})
    except KeyError as err:
        raise TraceSchemaError(
            f"trace line {lineno}: span missing field {err.args[0]!r}"
        ) from None
    if not isinstance(name, str) or not isinstance(span_id, int):
        raise TraceSchemaError(f"trace line {lineno}: bad name/id types")
    if parent is not None and not isinstance(parent, int):
        raise TraceSchemaError(f"trace line {lineno}: bad parent id")
    if not isinstance(attrs, dict):
        raise TraceSchemaError(f"trace line {lineno}: attrs must be a dict")
    if dt < 0:
        raise TraceSchemaError(f"trace line {lineno}: negative duration")
    return TraceSpan(
        name=name,
        span_id=span_id,
        parent_id=parent,
        t0=float(t0),
        dt=float(dt),
        attrs=dict(attrs),
    )


def read_trace(path: str | Path) -> Trace:
    """Parse and validate a trace file.

    Enforced invariants: a version-1 header, unique span ids, every
    ``parent`` referencing a known id assigned before the child's (the
    open-before rule), and non-negative durations.  A torn trailing line
    (interrupted write) is tolerated; an unparseable line elsewhere raises
    :class:`ValueError`, and a schema violation :class:`TraceSchemaError`.
    """
    records, _ = read_records(path)
    if not records:
        raise TraceSchemaError(f"{path}: empty trace file")
    spans: list[TraceSpan] = []
    version: int | None = None
    seen: set[int] = set()
    for lineno, obj in enumerate(records, start=1):
        kind = obj.get("kind")
        if kind == "trace":
            if version is not None:
                raise TraceSchemaError(f"{path}: duplicate trace header")
            version = int(obj.get("version", -1))
            if version != TRACE_VERSION:
                raise TraceSchemaError(
                    f"{path}: unsupported trace version {version}"
                )
            continue
        if kind != "span":
            raise TraceSchemaError(
                f"{path}: line {lineno} has unknown kind {kind!r}"
            )
        if version is None:
            raise TraceSchemaError(f"{path}: span before the trace header")
        span = _parse_span(obj, lineno)
        if span.span_id in seen:
            raise TraceSchemaError(
                f"{path}: duplicate span id {span.span_id} on line {lineno}"
            )
        if span.parent_id is not None and span.parent_id >= span.span_id:
            # ids are assigned at open: a parent is always opened (and
            # numbered) before any of its children
            raise TraceSchemaError(
                f"{path}: span {span.span_id} has non-ancestor parent "
                f"{span.parent_id}"
            )
        seen.add(span.span_id)
        spans.append(span)
    if version is None:
        raise TraceSchemaError(f"{path}: missing trace header")
    parents = {s.parent_id for s in spans if s.parent_id is not None}
    unknown = parents - {s.span_id for s in spans}
    if unknown:
        raise TraceSchemaError(
            f"{path}: spans reference unknown parent ids {sorted(unknown)}"
        )
    return Trace(version=version, spans=spans)


__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "SpanHandle",
    "Trace",
    "TraceSchemaError",
    "TraceSpan",
    "Tracer",
    "TRACE_VERSION",
    "read_trace",
]
