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
collide (see DESIGN.md §10 for the rationale).  The rounding is fixed at
:data:`DEFAULT_DECIMALS`: every digest the program writes or reads uses it.

Construction goes through two factories (the bare constructor raises
``TypeError``):

* :meth:`ResultCache.in_memory` — a per-run cache;
* :meth:`ResultCache.open` — a **persistent cross-campaign store**
  (DESIGN.md §15): digest → value pairs are appended to 16 shard files
  (``shard-0.jsonl`` … ``shard-f.jsonl``, by first hex digit) under one
  directory, one JSONL line per new result.  A :meth:`~ResultCache.put_many`
  call appends each touched shard's new lines with one open-write-close,
  so a killed service leaves valid shard prefixes — at most one torn final
  line per file.  The next open replays them and cuts a torn line before
  anything is appended after it (:mod:`repro.utils.jsonl`).  The files
  are append-only.

Every write — a simulated result or a ledger's replayed one
(:meth:`~ResultCache.preload`) — goes through :meth:`~ResultCache.put_many`,
and the cache keeps every result it stores or loads for as long as it
lives, so a stored result is never simulated again.

The cache is thread-safe (scheduler campaign threads share it) and
exposes a *single-flight* protocol for cross-campaign deduplication:
:meth:`lookup_or_claim` atomically resolves each digest to a hit, an
ownership claim (the caller must simulate and :meth:`put_many` — or
:meth:`abandon_many` on failure), or an in-flight marker another thread
owns that :meth:`wait_for` blocks on.  With N campaigns racing over
shared designs, exactly one simulates each point.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro._typing import ArrayLike
from repro.utils.contracts import shape_contract, thread_shared
from repro.utils.jsonl import ENCODER, drop_torn_tail, read_records
from repro.utils.sanitize_concurrency import make_lock

#: The rounding applied to points before hashing (see module docstring).
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


@shape_contract("X: a(n, d)")
def batch_digests(
    cache_key: str, X: ArrayLike, decimals: int = DEFAULT_DECIMALS
) -> list[str]:
    """SHA-256 digests addressing each ``(objective, rounded row)`` result.

    The payload is ``cache_key | decimals | round(x, decimals)`` bytes,
    with ``-0.0`` folded into ``+0.0``; the rounding and the fold run once
    over the whole ``(n, d)`` block.
    """
    arr = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    rounded = np.ascontiguousarray(np.round(arr, decimals) + 0.0)
    prefix = b"|".join([cache_key.encode("utf-8"), str(int(decimals)).encode(), b""])
    return [
        hashlib.sha256(prefix + row.tobytes()).hexdigest() for row in rounded
    ]


@shape_contract("x: a(d,)")
def point_digest(cache_key: str, x: ArrayLike) -> str:
    """:func:`batch_digests` of one point."""
    return batch_digests(cache_key, np.asarray(x, dtype=np.float64)[None, :])[0]


def _read_shards(root: Path) -> dict[str, float]:
    """Replay every shard file into one digest → value dict.

    Each shard is healed first (:func:`~repro.utils.jsonl.drop_torn_tail`),
    so the entries this cache appends never land on a torn line a killed
    writer left.  A later line wins when a digest appears twice (stores
    written by older builds may hold such repeats).
    """
    store: dict[str, float] = {}
    for shard in sorted(root.glob("shard-*.jsonl")):
        drop_torn_tail(shard)
        for record in read_records(shard)[0]:
            store[str(record["d"])] = float(record["y"])
    return store


def _append_shard_lines(root: Path, entries: Iterable[tuple[str, float]]) -> None:
    """Append ``{"d", "y"}`` records, one open-write-close per touched shard.

    Each shard's lines keep the order of ``entries``.  The close flushes
    the lines to the OS, a kill can tear at most the final line of a
    shard (which the next open cuts), and the cache never
    holds open file handles — so it stays safe to share across scheduler
    campaign threads.
    """
    shards: dict[str, list[str]] = {}
    for digest, value in entries:
        shards.setdefault(digest[0], []).append(
            ENCODER.encode({"d": digest, "y": value}) + "\n"
        )
    for shard, lines in shards.items():
        with (root / f"shard-{shard}.jsonl").open("a", encoding="utf-8") as fh:
            fh.write("".join(lines))


@thread_shared
class ResultCache:
    """Thread-safe digest → objective-value store with hit/miss counters.

    One lock guards the store *and* the hit/miss counters, so
    ``get`` can count and look up atomically.  The single-flight
    bookkeeping lives under a separate condition variable
    (``_flight_lock``); where both are needed the nesting order is always
    ``_flight_lock`` outer, ``_lock`` inner.

    Build one with :meth:`in_memory` or :meth:`open`; the bare constructor
    raises ``TypeError`` (its keyword parameters are the factories'
    plumbing, not public API).
    """

    def __init__(
        self, *, path: Path | None = None, _from_factory: bool = False
    ) -> None:
        if not _from_factory:
            raise TypeError(_BARE_CONSTRUCTOR_MSG)
        self._lock = make_lock("runtime.ResultCache")
        self._flight_lock = threading.Condition()
        self.path = path
        self._store: dict[str, float] = {}
        self._inflight: set[str] = set()
        self.hits = 0
        self.misses = 0
        if self.path is not None:
            self._store = _read_shards(self.path)

    # -- construction --------------------------------------------------------

    @classmethod
    def in_memory(cls) -> "ResultCache":
        """A process-local cache."""
        return cls(_from_factory=True)

    @classmethod
    def open(cls, path: str | Path) -> "ResultCache":
        """Open (or create) a persistent cache directory at ``path``.

        The directory holds ``meta.json`` (format version + the digest
        rounding) and up to 16 append-only JSONL shard files keyed by the
        first hex digit of each digest, and the opened cache holds every
        result they record.  A store whose ``meta.json`` records another
        rounding than :data:`DEFAULT_DECIMALS` is rejected with a
        ``ValueError``: its digests address other points.  So is one whose
        ``meta.json`` records another format version, no rounding, or is
        not an object.  The shard files are only ever cut by a torn
        final line.  Each append is written and closed eagerly, so no
        handle outlives the write.
        """
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        meta_path = root / "meta.json"
        if meta_path.exists():
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if not isinstance(meta, dict):
                raise ValueError(
                    f"cache at {root} has a meta.json holding "
                    f"{type(meta).__name__}, not an object"
                )
            version = int(meta.get("version", -1))
            if version != CACHE_FORMAT_VERSION:
                raise ValueError(
                    f"cache at {root} has format version {version}; this "
                    f"build reads version {CACHE_FORMAT_VERSION}"
                )
            if "decimals" not in meta:
                raise ValueError(f"cache at {root} has no decimals in meta.json")
            stored = int(meta["decimals"])
            if stored != DEFAULT_DECIMALS:
                raise ValueError(
                    f"cache at {root} was created with decimals={stored}; "
                    f"digests here round to {DEFAULT_DECIMALS}"
                )
        else:
            meta_path.write_text(
                ENCODER.encode(
                    {"version": CACHE_FORMAT_VERSION, "decimals": DEFAULT_DECIMALS}
                )
                + "\n",
                encoding="utf-8",
            )
        return cls(path=root, _from_factory=True)

    @property
    def persistent(self) -> bool:
        return self.path is not None

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

    def get(self, digest: str) -> float | None:
        """Look up a digest, counting the hit or miss."""
        with self._lock:
            value = self._store.get(digest)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def keys_for_batch(self, cache_key: str, X: ArrayLike) -> list[str]:
        """Digests for every row of ``X`` (one vectorized rounding pass)."""
        return batch_digests(cache_key, X)

    def put(self, digest: str, value: float) -> None:
        """Store one result: :meth:`put_many` with a single entry."""
        self.put_many((digest,), (value,))

    def put_many(self, digests: Sequence[str], values: Sequence[float]) -> None:
        """Store results in order, releasing any single-flight claims on them.

        One hold of the store lock covers every entry, taken in turn: a
        known digest takes its new value, a new one is stored.  A
        persistent cache then appends the new entries' lines with one
        open-write-close per touched shard, still under the lock, so each
        shard's lines keep the order of ``digests``.  Hit and miss counts
        do not move.
        """
        new: list[tuple[str, float]] = []
        with self._lock:
            store = self._store
            for digest, raw in zip(digests, values):
                value = float(raw)
                if digest not in store:
                    new.append((digest, value))
                store[digest] = value
            if new and self.path is not None:
                _append_shard_lines(self.path, new)
        with self._flight_lock:
            self._inflight.difference_update(digests)
            self._flight_lock.notify_all()

    def preload(self, mapping: Mapping[str, float]) -> None:
        """Store digest → value pairs (ledger replay): one :meth:`put_many`.

        Persistent caches write through: preloaded results a prior process
        simulated become part of the shared store.
        """
        self.put_many(list(mapping), list(mapping.values()))

    # -- single-flight claims (cross-campaign dedup) --------------------------

    def lookup_or_claim(
        self, digests: list[str]
    ) -> list[tuple[str, float | None]]:
        """Atomically resolve each digest to a value or a claim.

        Returns one ``(status, value)`` pair per digest:

        * :data:`CLAIM_HIT` — ``value`` is the cached result;
        * :data:`CLAIM_OWNED` — the caller took ownership: it must
          simulate the point and either :meth:`put_many` the result or
          :meth:`abandon_many` the digest (always abandon in a ``finally``
          — an unreleased claim blocks every waiter);
        * :data:`CLAIM_INFLIGHT` — another owner is simulating it now;
          :meth:`wait_for` blocks until the value lands or the owner
          abandons;
        * :data:`CLAIM_REPEAT` — the digest already appeared earlier in
          *this call* (in-batch duplicate); the earlier occurrence's
          status governs.

        Hit/miss counters move exactly as one :meth:`get` per digest would:
        one hit per HIT, one miss per OWNED and per REPEAT (a repeat is a
        miss the batch resolves internally), nothing for INFLIGHT (the
        wait is counted when it resolves).
        """
        out: list[tuple[str, float | None]] = []
        hits = misses = 0
        seen: set[str] = set()
        with self._flight_lock:
            with self._lock:
                for digest in digests:
                    if digest in self._store:
                        hits += 1
                        out.append((CLAIM_HIT, self._store[digest]))
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
        return out

    def wait_for(self, digest: str) -> float | None:
        """Block until an in-flight digest resolves; return its value.

        Returns ``None`` when the owner abandoned the claim: the caller
        should :meth:`lookup_or_claim` again, and it may now win ownership.
        A successful wait counts as a hit; an abandoned one counts nothing
        (the retry accounts itself).
        """
        with self._flight_lock:
            while digest in self._inflight:
                self._flight_lock.wait()
            with self._lock:
                value = self._store.get(digest)
                if value is not None:
                    self.hits += 1
        return value

    def abandon_many(self, digests: Iterable[str]) -> None:
        """Release single-flight claims without storing values.

        Call from a ``finally`` for every digest the caller still owns —
        including after :meth:`put_many` resolved some of them (releasing a
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
            }


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
