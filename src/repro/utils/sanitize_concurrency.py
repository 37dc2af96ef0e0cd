"""Opt-in runtime race sanitizer for shared runtime/telemetry state.

The campaign scheduler runs N campaigns at once, on the threads of one
pool, against *shared* objects — one :class:`~repro.runtime.cache.ResultCache`
across campaigns, one :class:`~repro.runtime.ledger.RunLedger` event stream,
one :class:`~repro.telemetry.metrics.MetricsRegistry`.  A lost counter
increment or an interleaved ledger line is silent: the campaign still
"works", the failure-rate bookkeeping is just wrong, which in a rare-event
detection pipeline is indistinguishable from a physics result.  This module
is the runtime half of the NL6xx concurrency-safety family (the static half
lives in ``tools/numlint/passes/concurrency.py``): cheap tripwires that turn
latent races into loud errors during sanitized test runs.

Like the shape sanitizer (DESIGN.md §9), everything here is gated on
``REPRO_SANITIZE`` *at import time* and is an identity when off:

* :func:`make_lock` returns a plain :class:`threading.RLock` — the exact
  object the hardened classes would use anyway, zero added overhead;
* :func:`repro.utils.contracts.thread_shared` stays a pure marker
  decorator (one class attribute, no wrapping).

With ``REPRO_SANITIZE=1`` two mechanisms switch on:

**Ownership tripwires.**  Every ``@thread_shared`` class is instrumented
(:func:`instrument_thread_shared`): instances are stamped with the ident of
the thread that constructed them, and every attribute write from *another*
thread must hold the instance's ``_lock`` (checked via ``RLock._is_owned``)
or a :class:`ConcurrencySanitizeError` is raised at the exact write that
raced.  Writes from the owning thread stay unchecked — single-threaded use
of a shared class is always legal — so the tripwire only fires on genuine
cross-thread mutation that bypassed the lock.

**Lock-order recording.**  :func:`make_lock` returns a
:class:`TrackedLock` that reports acquisitions to a process-wide
:class:`LockOrderRecorder`.  Locks are tracked by *name* (one node per lock
class, like kernel lockdep, so two instances of the same class share a
node); acquiring ``B`` while holding ``A`` adds the edge ``A -> B``, and an
edge that closes a cycle raises :class:`LockOrderError` *before* the
acquisition blocks — the potential deadlock is reported instead of
deadlocking the test run.  Reentrant acquisition of the same named lock
(RLock semantics) is recognized and never treated as a cycle.

Both mechanisms are approximate in the usual sanitizer sense: they detect
the unsynchronized schedules that actually execute, not all schedules that
could.  They are cheap enough to leave on for the whole threaded stress
suite (``tests/test_concurrency.py``), which is the point.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Type, TypeVar

from repro.utils.contracts import sanitize_enabled

C = TypeVar("C")

_ENABLED = sanitize_enabled()


class ConcurrencySanitizeError(RuntimeError):
    """An unsynchronized cross-thread mutation of ``@thread_shared`` state."""


class LockOrderError(ConcurrencySanitizeError):
    """A lock acquisition that closes a cycle in the lock-order graph."""


# -- lock-order recording -----------------------------------------------------


class LockOrderRecorder:
    """Directed graph over lock names; raises on edges that close a cycle.

    Thread-safe: the per-thread held-lock stack lives in a
    :class:`threading.local`, the shared edge set under a private mutex.
    The recorder is usable directly (the tests drive it without the
    environment gate); :class:`TrackedLock` feeds it automatically when
    the sanitizer is on.
    """

    def __init__(self) -> None:
        self._edges: dict[str, set[str]] = {}
        self._held = threading.local()
        self._mutex = threading.Lock()

    def _stack(self) -> list[str]:
        stack: list[str] | None = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def acquired(self, name: str) -> None:
        """Record that the current thread is acquiring ``name``.

        Called *before* the underlying acquire so a would-be deadlock is
        reported rather than entered.  Raises :class:`LockOrderError` when
        holding some ``H`` with an existing path ``name -> ... -> H``.
        """
        stack = self._stack()
        if name in stack:  # reentrant RLock acquisition: never an edge
            stack.append(name)
            return
        with self._mutex:
            for held in stack:
                if name in self._edges.get(held, ()):
                    continue
                path = self._find_path(name, held)
                if path is not None:
                    cycle = " -> ".join([held, *path])
                    raise LockOrderError(
                        f"lock-order cycle: acquiring {name!r} while holding "
                        f"{held!r}, but the recorded order is {cycle}"
                    )
                self._edges.setdefault(held, set()).add(name)
        stack.append(name)

    def released(self, name: str) -> None:
        """Record that the current thread released ``name``."""
        stack = self._stack()
        if stack and stack[-1] == name:
            stack.pop()
        elif name in stack:  # out-of-order release: drop the right entry
            stack.reverse()
            stack.remove(name)
            stack.reverse()

    def abandon(self, name: str) -> None:
        """Undo an :meth:`acquired` whose underlying acquire failed."""
        self.released(name)

    def _find_path(self, src: str, dst: str) -> list[str] | None:
        """A path ``src -> ... -> dst`` in the edge graph, if one exists."""
        seen = {src}
        frontier: list[tuple[str, list[str]]] = [(src, [src])]
        while frontier:
            node, path = frontier.pop()
            if node == dst:
                return path
            for nxt in sorted(self._edges.get(node, ())):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, path + [nxt]))
        return None

    def edges(self) -> dict[str, tuple[str, ...]]:
        """A deterministic snapshot of the recorded order graph."""
        with self._mutex:
            return {
                name: tuple(sorted(targets))
                for name, targets in sorted(self._edges.items())
            }

    def reset(self) -> None:
        """Forget every recorded edge (test isolation)."""
        with self._mutex:
            self._edges.clear()


#: Process-wide recorder fed by every :class:`TrackedLock`.
GLOBAL_LOCK_ORDER = LockOrderRecorder()


class TrackedLock:
    """An RLock that reports acquisition order to a recorder.

    Exposes the subset of the lock protocol the hardened classes use
    (context manager, ``acquire``/``release``) plus ``_is_owned`` so the
    ownership tripwires can ask whether the current thread holds it.
    """

    __slots__ = ("name", "_lock", "_recorder")

    def __init__(
        self, name: str, recorder: LockOrderRecorder | None = None
    ) -> None:
        self.name = name
        self._lock = threading.RLock()
        self._recorder = recorder if recorder is not None else GLOBAL_LOCK_ORDER

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._recorder.acquired(self.name)  # raises before a would-be deadlock
        ok = self._lock.acquire(blocking, timeout)
        if not ok:
            self._recorder.abandon(self.name)
        return ok

    def release(self) -> None:
        self._lock.release()
        self._recorder.released(self.name)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def _is_owned(self) -> bool:
        return self._lock._is_owned()  # type: ignore[attr-defined]


def make_lock(name: str) -> "threading.RLock | TrackedLock":  # type: ignore[valid-type]
    """The lock a ``@thread_shared`` class should guard its state with.

    Identity-when-off: without ``REPRO_SANITIZE`` this *is*
    ``threading.RLock()`` — no wrapper, no recorder, no overhead.  With the
    sanitizer on it returns a :class:`TrackedLock` feeding the global
    lock-order recorder under ``name`` (use one stable name per class, e.g.
    ``"runtime.ResultCache"``; instances share the lockdep node).
    """
    if not _ENABLED:
        return threading.RLock()
    return TrackedLock(name)


# -- ownership tripwires ------------------------------------------------------

#: id(obj) -> ident of the constructing thread, for instrumented classes.
#: Entries are never pruned: the sanitizer runs in bounded test processes
#: and an id reused by a new instrumented object is re-stamped in __init__.
_OWNERS: dict[int, int] = {}
_OWNERS_MUTEX = threading.Lock()

#: Attribute writes always allowed on instrumented classes (sanitizer
#: bookkeeping and the lock itself, which is installed before first use).
_EXEMPT_ATTRS = frozenset({"_lock"})


def _lock_is_owned(obj: Any) -> bool:
    lock = getattr(obj, "_lock", None)
    probe = getattr(lock, "_is_owned", None)
    return bool(probe()) if probe is not None else False


def check_shared_write(obj: Any, name: str) -> None:
    """Tripwire consulted on every attribute write of a tracked object.

    Allowed: writes from the constructing thread (single-threaded use of a
    shared class is always legal), writes made while holding ``obj._lock``,
    and writes to exempt bookkeeping attributes.  Everything else is an
    unsynchronized cross-thread mutation and raises.
    """
    if name in _EXEMPT_ATTRS:
        return
    ident = threading.get_ident()
    with _OWNERS_MUTEX:
        owner = _OWNERS.get(id(obj))
    if owner is None or owner == ident:
        return
    if _lock_is_owned(obj):
        return
    raise ConcurrencySanitizeError(
        f"unsynchronized cross-thread write to "
        f"{type(obj).__name__}.{name}: the object is owned by thread "
        f"{owner} but thread {ident} wrote without holding its _lock"
    )


def instrument_thread_shared(cls: Type[C]) -> Type[C]:
    """Install ownership tripwires on a ``@thread_shared`` class.

    Wraps ``__init__`` to stamp the constructing thread and ``__setattr__``
    to route every attribute write through :func:`check_shared_write`.
    Callable directly (ungated) so the tests can exercise the tripwires
    without the environment switch; :func:`~repro.utils.contracts.thread_shared`
    applies it automatically when the sanitizer is on.
    """
    orig_init: Callable[..., None] = cls.__init__  # type: ignore[misc]
    orig_setattr: Callable[[Any, str, Any], None] = cls.__setattr__

    @functools.wraps(orig_init)
    def stamped_init(self: Any, *args: Any, **kwargs: Any) -> None:
        with _OWNERS_MUTEX:
            _OWNERS[id(self)] = threading.get_ident()
        orig_init(self, *args, **kwargs)

    def checked_setattr(self: Any, name: str, value: Any) -> None:
        check_shared_write(self, name)
        orig_setattr(self, name, value)

    cls.__init__ = stamped_init  # type: ignore[misc]
    cls.__setattr__ = checked_setattr  # type: ignore[method-assign, assignment]
    cls.__concurrency_instrumented__ = True  # type: ignore[attr-defined]
    return cls


def concurrency_sanitize_enabled() -> bool:
    """Whether this process imported with the race sanitizer armed."""
    return _ENABLED


__all__ = [
    "ConcurrencySanitizeError",
    "GLOBAL_LOCK_ORDER",
    "LockOrderError",
    "LockOrderRecorder",
    "TrackedLock",
    "check_shared_write",
    "concurrency_sanitize_enabled",
    "instrument_thread_shared",
    "make_lock",
]
