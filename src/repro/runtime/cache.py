"""Content-addressed evaluation result cache, in-memory or persistent.

Each simulation result is addressed by a SHA-256 digest of the objective's
``cache_key`` plus the evaluation point *rounded to a fixed number of
decimals*.  Rounding is what makes deduplication effective in practice: the
repeated points a campaign actually produces — the shared initial design
every BO method starts from, REMBO proposals that clip to the same boundary
``x`` (Eq. 11 projects many embedded ``z`` onto one cube face) — agree to
well below 1e-12 but not always bit-for-bit after independent float
pipelines.  Twelve decimals is far inside simulator noise and far outside
any step an optimizer takes deliberately, so distinct query points never
collide (see DESIGN.md §10 for the rationale).

Construction goes through two factories (the bare constructor raises
``TypeError``):

* :meth:`ResultCache.in_memory` — a per-run cache;
* :meth:`ResultCache.open` — a **persistent cross-campaign store**
  (DESIGN.md §15): digest → value pairs are appended to 16 shard files
  (``shard-0.jsonl`` … ``shard-f.jsonl``, by first hex digit) under one
  directory, one flushed JSONL line per new result, so a killed service
  leaves valid shard prefixes the next open replays.  The files are
  append-only; ``max_entries`` bounds only the *in-memory* working set via
  LRU eviction (an evicted digest re-simulates, then re-appends).

The cache is thread-safe (broker worker fleets and scheduler campaign
threads share it) and exposes a *single-flight* protocol for
cross-campaign deduplication: :meth:`lookup_or_claim` atomically resolves
each digest to a hit, an ownership claim (the caller must simulate and
:meth:`put` — or :meth:`abandon_many` on failure), or an in-flight marker
another thread owns that :meth:`wait_for` blocks on.  With N campaigns
racing over shared designs, exactly one simulates each point.

It pickles by value with the locks dropped and recreated, so
it can ride inside task tuples handed to a process pool — though mutations
made in a child process do not propagate back (cross-method sharing needs
``n_jobs=1`` or a ledger replay).
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from repro._typing import ArrayLike
from repro.utils.contracts import shape_contract, thread_shared
from repro.utils.sanitize_concurrency import make_lock

#: Default rounding applied to points before hashing (see module docstring).
DEFAULT_DECIMALS = 12

#: On-disk schema version stamped into ``meta.json`` of a persistent cache.
CACHE_FORMAT_VERSION = 1

#: Statuses returned by :meth:`ResultCache.lookup_or_claim`, per digest.
CLAIM_HIT = "hit"  #: value present; returned alongside the status
CLAIM_OWNED = "owned"  #: caller now owns the digest: simulate, then put/abandon
CLAIM_INFLIGHT = "inflight"  #: another thread owns it: wait_for() the value
CLAIM_REPEAT = "repeat"  #: duplicate of an earlier digest in the *same* call

_BARE_CONSTRUCTOR_MSG = (
    "ResultCache cannot be constructed directly; use ResultCache.in_memory() "
    "for a per-run cache or ResultCache.open(path) for a persistent store"
)


@shape_contract("x: a(d,)")
def point_digest(
    cache_key: str, x: ArrayLike, decimals: int = DEFAULT_DECIMALS
) -> str:
    """SHA-256 digest addressing one ``(objective, rounded point)`` result."""
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    rounded = np.round(arr, decimals) + 0.0  # fold -0.0 into +0.0
    payload = b"|".join(
        [cache_key.encode("utf-8"), str(int(decimals)).encode(), rounded.tobytes()]
    )
    return hashlib.sha256(payload).hexdigest()


@shape_contract("X: a(n, d)")
def batch_digests(
    cache_key: str, X: ArrayLike, decimals: int = DEFAULT_DECIMALS
) -> list[str]:
    """Digests for a whole ``(n, d)`` block in one vectorized pass.

    The rounding and ``-0.0`` fold run once over the full block instead of
    row by row; each digest is byte-identical to :func:`point_digest` on
    the corresponding row (``np.round`` and the ``+ 0.0`` fold are
    elementwise, so batching cannot change any byte of a row's payload).
    """
    arr = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    rounded = np.ascontiguousarray(np.round(arr, decimals) + 0.0)
    prefix = b"|".join([cache_key.encode("utf-8"), str(int(decimals)).encode(), b""])
    return [
        hashlib.sha256(prefix + row.tobytes()).hexdigest() for row in rounded
    ]


def _parse_shard(path: Path) -> list[tuple[str, float]]:
    """Parse one shard file, tolerating a torn final line (killed write)."""
    entries: list[tuple[str, float]] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    last = len(lines)
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError:
            if lineno == last:  # the write a kill interrupted
                break
            raise ValueError(
                f"corrupt cache shard {path}: unparseable line {lineno} is "
                "not the final line"
            ) from None
        entries.append((str(obj["d"]), float(obj["y"])))
    return entries


def _read_shards(root: Path, max_entries: int | None) -> dict[str, float]:
    """Replay every shard file into an insertion-ordered store dict.

    Later lines win (a re-appended digest after eviction); replaying in
    file order keeps the most recently written entries newest in LRU
    order, so the load-time trim keeps exactly the freshest tail.
    """
    entries: list[tuple[str, float]] = []
    for shard in sorted(root.glob("shard-*.jsonl")):
        entries.extend(_parse_shard(shard))
    store: dict[str, float] = {}
    for digest, value in entries:
        if digest in store:
            del store[digest]
        store[digest] = value
    if max_entries is not None:
        while len(store) > max_entries:
            del store[next(iter(store))]
    return store


def _append_shard_line(root: Path, digest: str, value: float) -> None:
    """Append one ``{"d", "y"}`` record to the digest's shard file.

    Open-append-close per record: the close flushes the line to the OS, a
    kill can tear at most the final line (which :func:`_parse_shard`
    tolerates), and the cache never holds open file handles — so it stays
    picklable and safe to share across scheduler campaign threads.
    """
    line = json.dumps({"d": digest, "y": value}, separators=(",", ":")) + "\n"
    with (root / f"shard-{digest[0]}.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(line)


@thread_shared
class ResultCache:
    """Thread-safe digest → objective-value store with hit/miss counters.

    One lock guards the store *and* the hit/miss/eviction counters, so
    ``get`` can count and look up atomically.  Both construction and
    unpickling obtain the lock from the same factory (:meth:`_new_lock`) —
    there is exactly one place that decides which lock class an instance
    carries, so a pickled-and-restored cache is guarded identically to a
    fresh one.  The single-flight bookkeeping lives under a separate
    condition variable (``_flight_lock``); where both are needed the
    nesting order is always ``_flight_lock`` outer, ``_lock`` inner.

    Build one with :meth:`in_memory` or :meth:`open`; the bare constructor
    raises ``TypeError`` (its keyword parameters are the factories'
    plumbing, not public API).
    """

    def __init__(
        self,
        decimals: int = DEFAULT_DECIMALS,
        *,
        path: Path | None = None,
        max_entries: int | None = None,
        _from_factory: bool = False,
    ) -> None:
        if not _from_factory:
            raise TypeError(_BARE_CONSTRUCTOR_MSG)
        if decimals < 0:
            raise ValueError(f"decimals must be non-negative, got {decimals}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 when set, got {max_entries}"
            )
        self._lock = self._new_lock()
        self._flight_lock = threading.Condition()
        self.decimals = int(decimals)
        self.max_entries = max_entries
        self.path = path
        self._store: dict[str, float] = {}
        self._inflight: set[str] = set()
        self._metrics: Any = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if self.path is not None:
            self._store = _read_shards(self.path, max_entries)

    # -- construction --------------------------------------------------------

    @classmethod
    def in_memory(
        cls,
        decimals: int = DEFAULT_DECIMALS,
        max_entries: int | None = None,
    ) -> "ResultCache":
        """A process-local cache.

        ``max_entries`` optionally bounds the store with LRU eviction.
        """
        return cls(decimals, max_entries=max_entries, _from_factory=True)

    @classmethod
    def open(
        cls,
        path: str | Path,
        decimals: int | None = None,
        max_entries: int | None = None,
    ) -> "ResultCache":
        """Open (or create) a persistent cache directory at ``path``.

        The directory holds ``meta.json`` (format version + decimals) and
        up to 16 append-only JSONL shard files keyed by the first hex digit
        of each digest.  ``decimals`` must match an existing store's
        recorded value (omit it to adopt whatever the store was created
        with); ``max_entries`` bounds only the in-memory working set — the
        shard files are append-only and never rewritten.  Each append is
        written and closed eagerly, so no handle outlives the write.
        """
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        meta_path = root / "meta.json"
        if meta_path.exists():
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            version = int(meta.get("version", -1))
            if version != CACHE_FORMAT_VERSION:
                raise ValueError(
                    f"cache at {root} has format version {version}; this "
                    f"build reads version {CACHE_FORMAT_VERSION}"
                )
            stored = int(meta["decimals"])
            if decimals is not None and int(decimals) != stored:
                raise ValueError(
                    f"cache at {root} was created with decimals={stored}, "
                    f"open() called with decimals={decimals}"
                )
            decimals = stored
        else:
            decimals = DEFAULT_DECIMALS if decimals is None else int(decimals)
            meta_path.write_text(
                json.dumps(
                    {"version": CACHE_FORMAT_VERSION, "decimals": decimals},
                    separators=(",", ":"),
                )
                + "\n",
                encoding="utf-8",
            )
        return cls(
            decimals, path=root, max_entries=max_entries, _from_factory=True
        )

    @staticmethod
    def _new_lock() -> "threading.RLock":  # type: ignore[valid-type]
        """The single source of the cache's lock (init and unpickle)."""
        return make_lock("runtime.ResultCache")

    @property
    def persistent(self) -> bool:
        return self.path is not None

    def bind_metrics(self, metrics: Any) -> None:
        """Mirror hit/miss/eviction counts into a metrics registry.

        ``metrics`` is a :class:`~repro.telemetry.metrics.MetricsRegistry`
        (or the null registry); the cache feeds ``result_cache.hits`` /
        ``result_cache.misses`` / ``result_cache.evictions`` counters and a
        ``result_cache.size`` gauge.
        """
        with self._lock:
            self._metrics = metrics
            size = len(self._store)
        self._emit_metrics(size=size)

    def _emit_metrics(
        self,
        hits: int = 0,
        misses: int = 0,
        evictions: int = 0,
        size: int | None = None,
    ) -> None:
        """Apply accumulated counter deltas outside the cache lock."""
        metrics = self._metrics
        if metrics is None:
            return
        if hits:
            metrics.counter("result_cache.hits").inc(hits)
        if misses:
            metrics.counter("result_cache.misses").inc(misses)
        if evictions:
            metrics.counter("result_cache.evictions").inc(evictions)
        if size is not None:
            metrics.gauge("result_cache.size").set(float(size))

    def close(self) -> None:
        """Release the cache.

        Every shard append is written-and-closed eagerly, so there is
        nothing buffered to flush; the method (and context-manager form)
        exists so call sites scope the cache's lifetime explicitly.
        """

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- lookups -------------------------------------------------------------

    def key_for(self, cache_key: str, x: ArrayLike) -> str:
        """The digest this cache would use for ``(cache_key, x)``."""
        return point_digest(cache_key, x, decimals=self.decimals)

    def get(self, digest: str) -> float | None:
        """Look up a digest, counting the hit or miss."""
        with self._lock:
            if digest in self._store:
                self.hits += 1
                value = self._store[digest] = self._store.pop(digest)
                hit = True
            else:
                self.misses += 1
                value, hit = None, False
        self._emit_metrics(hits=int(hit), misses=int(not hit))
        return value

    def keys_for_batch(self, cache_key: str, X: ArrayLike) -> list[str]:
        """Digests for every row of ``X`` (one vectorized rounding pass)."""
        return batch_digests(cache_key, X, decimals=self.decimals)

    def get_many(self, digests: list[str]) -> list[float | None]:
        """Look up many digests under a single lock acquisition.

        Counts one hit or miss per digest, exactly as the equivalent
        sequence of :meth:`get` calls would.
        """
        out: list[float | None] = []
        hits = misses = 0
        with self._lock:
            for digest in digests:
                if digest in self._store:
                    hits += 1
                    value = self._store[digest] = self._store.pop(digest)
                    out.append(value)
                else:
                    misses += 1
                    out.append(None)
            self.hits += hits
            self.misses += misses
        self._emit_metrics(hits=hits, misses=misses)
        return out

    def put(self, digest: str, value: float) -> None:
        """Store one result, releasing any single-flight claim on it."""
        evicted = 0
        with self._lock:
            if digest in self._store:
                del self._store[digest]  # re-insert: most-recently-used
                self._store[digest] = float(value)
                size = len(self._store)
            else:
                self._store[digest] = float(value)
                if self.path is not None:
                    _append_shard_line(self.path, digest, float(value))
                if self.max_entries is not None:
                    while len(self._store) > self.max_entries:
                        del self._store[next(iter(self._store))]
                        evicted += 1
                    self.evictions += evicted
                size = len(self._store)
        with self._flight_lock:
            self._inflight.discard(digest)
            self._flight_lock.notify_all()
        self._emit_metrics(evictions=evicted, size=size)

    def preload(self, mapping: Mapping[str, float]) -> None:
        """Bulk-insert digest → value pairs (ledger replay) without counting.

        Persistent caches write through: preloaded results a prior process
        simulated become part of the shared store.
        """
        evicted = 0
        with self._lock:
            for digest, value in mapping.items():
                if digest not in self._store and self.path is not None:
                    _append_shard_line(self.path, digest, float(value))
                self._store[digest] = float(value)
            if self.max_entries is not None:
                while len(self._store) > self.max_entries:
                    del self._store[next(iter(self._store))]
                    evicted += 1
                self.evictions += evicted
            size = len(self._store)
        with self._flight_lock:
            for digest in mapping:
                self._inflight.discard(digest)
            self._flight_lock.notify_all()
        self._emit_metrics(evictions=evicted, size=size)

    # -- single-flight claims (cross-campaign dedup) --------------------------

    def lookup_or_claim(
        self, digests: list[str]
    ) -> list[tuple[str, float | None]]:
        """Atomically resolve each digest to a value or a claim.

        Returns one ``(status, value)`` pair per digest:

        * :data:`CLAIM_HIT` — ``value`` is the cached result;
        * :data:`CLAIM_OWNED` — the caller took ownership: it must
          simulate the point and either :meth:`put` the result or
          :meth:`abandon_many` the digest (always abandon in a ``finally``
          — an unreleased claim blocks every waiter);
        * :data:`CLAIM_INFLIGHT` — another owner is simulating it now;
          :meth:`wait_for` blocks until the value lands or the owner
          abandons;
        * :data:`CLAIM_REPEAT` — the digest already appeared earlier in
          *this call* (in-batch duplicate); the earlier occurrence's
          status governs.

        Hit/miss counters move exactly as :meth:`get_many` would: one hit
        per HIT, one miss per OWNED and per REPEAT (a repeat is a miss the
        batch resolves internally), nothing for INFLIGHT (the wait is
        counted when it resolves).
        """
        out: list[tuple[str, float | None]] = []
        hits = misses = 0
        seen: set[str] = set()
        with self._flight_lock:
            with self._lock:
                for digest in digests:
                    if digest in self._store:
                        hits += 1
                        value = self._store[digest] = self._store.pop(digest)
                        out.append((CLAIM_HIT, value))
                    elif digest in seen:
                        misses += 1
                        out.append((CLAIM_REPEAT, None))
                    elif digest in self._inflight:
                        out.append((CLAIM_INFLIGHT, None))
                    else:
                        misses += 1
                        self._inflight.add(digest)
                        seen.add(digest)
                        out.append((CLAIM_OWNED, None))
                self.hits += hits
                self.misses += misses
        self._emit_metrics(hits=hits, misses=misses)
        return out

    def wait_for(
        self, digest: str, timeout: float | None = None
    ) -> float | None:
        """Block until an in-flight digest resolves; return its value.

        Returns ``None`` when the owner abandoned the claim (the caller
        should :meth:`lookup_or_claim` again — it may now win ownership),
        when the value was evicted before this thread woke, or when
        ``timeout`` (seconds) expired.  A successful wait counts as a hit;
        the unresolved outcomes count nothing (the retry accounts itself).
        """
        with self._flight_lock:
            while digest in self._inflight:
                if not self._flight_lock.wait(timeout):
                    return None
            with self._lock:
                if digest in self._store:
                    self.hits += 1
                    value = self._store[digest] = self._store.pop(digest)
                else:
                    value = None
        if value is not None:
            self._emit_metrics(hits=1)
        return value

    def abandon_many(self, digests: Iterable[str]) -> None:
        """Release single-flight claims without storing values.

        Call from a ``finally`` for every digest the caller still owns —
        including after :meth:`put` resolved some of them (releasing a
        digest that is not claimed is a no-op), so failure paths can
        blanket-release the whole owned set.
        """
        with self._flight_lock:
            for digest in digests:
                self._inflight.discard(digest)
            self._flight_lock.notify_all()

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._store

    @property
    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._store),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    # -- pickling (locks and handles are not picklable) ----------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        del state["_flight_lock"]
        state["_metrics"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = self._new_lock()
        self._flight_lock = threading.Condition()


__all__ = [
    "CACHE_FORMAT_VERSION",
    "CLAIM_HIT",
    "CLAIM_INFLIGHT",
    "CLAIM_OWNED",
    "CLAIM_REPEAT",
    "DEFAULT_DECIMALS",
    "ResultCache",
    "batch_digests",
    "point_digest",
]
