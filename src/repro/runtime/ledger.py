"""Append-only JSONL run ledger: event log and checkpoint format in one.

Every evaluation the broker performs emits events — ``dispatched``,
``completed``, ``failed``, ``retried``, ``cache_hit`` — as one JSON
object per line.  :meth:`RunLedger.extend` writes a group of events (a
broker round's ``dispatched`` events, one slice of its results) with
one write and one flush.  Lines land in order and a kill mid-write
tears at most the final one, so a killed campaign leaves a valid
prefix: the ledger *is* the checkpoint.  Both sides
follow the rule of :mod:`repro.utils.jsonl`: :func:`read_ledger` drops
a torn final line (the write the kill interrupted), and a
:class:`RunLedger` cuts it before its first append.

Resuming a killed campaign is a cache preload plus a ledger on the same
path: ``cache.preload(read_ledger(path).completed)``, then rerun the
same seeded campaign under ``RuntimePolicy(cache=cache,
ledger=RunLedger(path))``.  Every evaluation the killed run finished is
served from the cache, so the rerun appends only the rest and ends
bitwise-identical to an uninterrupted run.

Event schema (version 1)
------------------------
``campaign``
    Run metadata: ``cache_key``, ``dim``, ``method``, broker config.
``dispatched``
    ``id`` (evaluation counter), ``attempt``, ``digest``.
``completed``
    ``id``, ``attempt``, ``digest``, ``x`` (the evaluated point),
    ``y``, ``seconds`` (simulation wall time), ``cached`` (always false —
    cache hits get their own event).
``cache_hit``
    ``id``, ``digest``, ``y`` — the point was served without simulating.
``failed``
    ``id``, ``attempt``, ``error`` (exception class), ``message``.
``retried``
    ``id``, ``attempt`` (the upcoming attempt), ``backoff_seconds``.

A point whose retries ran out ends on its last ``failed`` event (the
broker raises).  Ledgers from before the failure policies were removed
may also hold ``skipped`` and ``penalized`` lines; they read like any
other event.

Durations are monotonic (``time.perf_counter``) deltas only; the ledger
deliberately records no wall-clock timestamps so replaying it is
deterministic (see the NL401 invariant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterable

import numpy as np

from repro._typing import FloatArray
from repro.runtime.cache import DEFAULT_DECIMALS
from repro.utils.contracts import thread_shared
from repro.utils.jsonl import ENCODER, drop_torn_tail, read_records
from repro.utils.sanitize_concurrency import make_lock

#: Schema version stamped on campaign events.
LEDGER_VERSION = 1


@thread_shared
class RunLedger:
    """Append-only JSONL writer; one flush per group of events.

    The file handle opens lazily on first write, so a ledger that never
    records an event never creates its file.  Opening an existing file
    first cuts a torn final line a killed writer left
    (:func:`~repro.utils.jsonl.drop_torn_tail`), so appended events never
    land on the fragment.

    Writes are thread-safe: the lazy open, the write and the flush run
    under one lock, so concurrent campaign threads can share a ledger
    without ever interleaving bytes of two JSON lines.  Events are encoded
    *outside* the lock — the only serialized section is the file append
    itself.
    """

    def __init__(self, path: str | Path) -> None:
        self._lock = make_lock("runtime.RunLedger")
        self.path = Path(path)
        self._fh: IO[str] | None = None

    def append(self, event: dict[str, Any]) -> None:
        """Write one event line and flush it: :meth:`extend` of one event."""
        self.extend((event,))

    def extend(self, events: Iterable[dict[str, Any]]) -> None:
        """Write event lines in order, then flush them once."""
        text = "".join([ENCODER.encode(event) + "\n" for event in events])
        if not text:
            return
        with self._lock:
            if self._fh is None:
                if self.path.exists():
                    drop_torn_tail(self.path)
                else:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
            self._fh.write(text)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class LedgerReplay:
    """Parsed state of one ledger file.

    ``completed`` maps digests to objective values (latest wins) and is
    what a resumed campaign preloads into its cache; ``X``/``y`` are the
    completed evaluations in event order, for inspecting a partial
    campaign.
    """

    events: list[dict[str, Any]]
    completed: dict[str, float]
    X: FloatArray
    y: FloatArray
    counts: dict[str, int] = field(default_factory=dict)
    truncated: bool = False
    #: completed events whose digest had already completed earlier — actual
    #: repeat simulations the cache should have absorbed.
    duplicate_simulations: int = 0

    @property
    def n_completed(self) -> int:
        return self.counts.get("completed", 0)

    @property
    def n_cache_hits(self) -> int:
        return self.counts.get("cache_hit", 0)

    def campaigns(self) -> list[dict[str, Any]]:
        return [e for e in self.events if e.get("event") == "campaign"]

    def runs(self) -> list[list[dict[str, Any]]]:
        """The events split into runs, each opening at a ``campaign`` header.

        Every broker writes its own header, so a resumed campaign's ledger
        holds the killed run, then the resumed run appended in place.
        Events before the first header form a run of their own.
        """
        runs: list[list[dict[str, Any]]] = []
        for event in self.events:
            if not runs or event.get("event") == "campaign":
                runs.append([])
            runs[-1].append(event)
        return runs


def read_ledger(path: str | Path) -> LedgerReplay:
    """Parse a ledger file into a :class:`LedgerReplay`.

    A truncated final line (interrupted write) is dropped and flagged via
    ``truncated``; garbage anywhere else raises, as does a ``campaign``
    header that records a digest rounding other than
    :data:`~repro.runtime.cache.DEFAULT_DECIMALS` (its digests would
    address other points).
    """
    events, truncated = read_records(path)

    completed: dict[str, float] = {}
    xs: list[list[float]] = []
    ys: list[float] = []
    counts: dict[str, int] = {}
    duplicates = 0
    for event in events:
        kind = str(event.get("event", "?"))
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "campaign":
            recorded = event.get("cache_decimals", DEFAULT_DECIMALS)
            if int(recorded) != DEFAULT_DECIMALS:
                raise ValueError(
                    f"ledger {path} was written with cache_decimals="
                    f"{recorded}; digests here round to {DEFAULT_DECIMALS}"
                )
        elif kind == "completed":
            digest = str(event["digest"])
            if digest in completed:
                duplicates += 1
            completed[digest] = float(event["y"])
            xs.append([float(v) for v in event["x"]])
            ys.append(float(event["y"]))

    if xs:
        X = np.asarray(xs, dtype=float)
    else:
        dim = 0
        for event in events:
            if event.get("event") == "campaign" and "dim" in event:
                dim = int(event["dim"])
                break
        X = np.empty((0, dim), dtype=float)
    return LedgerReplay(
        events=events,
        completed=completed,
        X=X,
        y=np.asarray(ys, dtype=float),
        counts=counts,
        truncated=truncated,
        duplicate_simulations=duplicates,
    )


__all__ = ["LEDGER_VERSION", "LedgerReplay", "RunLedger", "read_ledger"]
