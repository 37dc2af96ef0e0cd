"""Threaded stress suite for the shared runtime/telemetry state.

The hard guarantee under test: with N threads hammering the
``@thread_shared`` classes — :class:`MetricsRegistry`,
:class:`RunLedger`, :class:`ResultCache`, :class:`Tracer` — *nothing is
lost*: counter totals are exact, every ledger line is whole JSON, span
ids are unique and nest per thread.  The suite runs identically with and
without ``REPRO_SANITIZE=1``; CI runs it both ways, and the sanitized
run additionally arms the ownership tripwires and the lock-order
recorder (exercised directly below, without the environment gate).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import (
    BrokerConfig,
    EvaluationBroker,
    FunctionObjective,
    ResultCache,
    RunLedger,
    read_ledger,
)
from repro.telemetry import MetricsRegistry, Telemetry, Tracer
from repro.utils.sanitize_concurrency import (
    ConcurrencySanitizeError,
    LockOrderError,
    LockOrderRecorder,
    TrackedLock,
    instrument_thread_shared,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

N_THREADS = 8


def run_threads(target, n_threads: int = N_THREADS) -> list[BaseException]:
    """Run ``target(i)`` on ``n_threads`` threads; return raised errors."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_threads)

    def runner(i: int) -> None:
        try:
            barrier.wait()
            target(i)
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


# -- MetricsRegistry ----------------------------------------------------------


class TestMetricsUnderThreads:
    N_PER_THREAD = 2000

    def test_counter_totals_are_exact(self):
        registry = MetricsRegistry()

        def hammer(i: int) -> None:
            for _ in range(self.N_PER_THREAD):
                registry.counter("shared").inc()
                registry.counter(f"per_thread.{i}").inc(2)

        assert run_threads(hammer) == []
        snap = registry.snapshot()
        assert snap["counters"]["shared"] == N_THREADS * self.N_PER_THREAD
        for i in range(N_THREADS):
            assert (
                snap["counters"][f"per_thread.{i}"] == 2 * self.N_PER_THREAD
            )

    def test_histogram_totals_are_exact(self):
        registry = MetricsRegistry()

        def observe(i: int) -> None:
            for k in range(self.N_PER_THREAD):
                registry.histogram("lat").observe(float(i * 1000 + k))

        assert run_threads(observe) == []
        hist = registry.snapshot()["histograms"]["lat"]
        n = N_THREADS * self.N_PER_THREAD
        assert hist["count"] == n
        expected_total = sum(
            float(i * 1000 + k)
            for i in range(N_THREADS)
            for k in range(self.N_PER_THREAD)
        )
        assert hist["total"] == pytest.approx(expected_total)
        assert hist["min"] == 0.0
        assert hist["max"] == float((N_THREADS - 1) * 1000 + self.N_PER_THREAD - 1)

    def test_get_or_create_race_yields_one_instrument(self):
        registry = MetricsRegistry()

        def create_and_inc(i: int) -> None:
            registry.counter("contested").inc()

        assert run_threads(create_and_inc, n_threads=16) == []
        # the losing thread of an unsynchronized race would have counted
        # into an orphan instrument, losing its increment
        assert registry.snapshot()["counters"]["contested"] == 16


# -- RunLedger ----------------------------------------------------------------


class TestLedgerUnderThreads:
    N_PER_THREAD = 300

    def test_no_lost_or_torn_lines(self, tmp_path):
        path = tmp_path / "stress.jsonl"
        with RunLedger(path) as ledger:

            def append(i: int) -> None:
                for k in range(self.N_PER_THREAD):
                    ledger.append({"event": "tick", "thread": i, "k": k})

            assert run_threads(append) == []

        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == N_THREADS * self.N_PER_THREAD
        per_thread: dict[int, set[int]] = {}
        for line in lines:
            event = json.loads(line)  # raises on any torn/interleaved line
            per_thread.setdefault(event["thread"], set()).add(event["k"])
        assert set(per_thread) == set(range(N_THREADS))
        for seen in per_thread.values():
            assert seen == set(range(self.N_PER_THREAD))

    def test_replay_parses_concurrent_ledger(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        with RunLedger(path) as ledger:

            def append(i: int) -> None:
                for k in range(20):
                    ledger.append({"event": "completed", "digest": f"{i}:{k}",
                                   "x": [float(i), float(k)], "y": 1.0})

            assert run_threads(append) == []
        replay = read_ledger(path)
        assert not replay.truncated
        assert replay.n_completed == N_THREADS * 20
        assert len(replay.completed) == N_THREADS * 20


# -- ResultCache --------------------------------------------------------------


class TestCacheUnderThreads:
    def test_get_many_under_concurrent_writers(self):
        cache = ResultCache.in_memory()
        digests = [f"digest-{k}" for k in range(512)]
        stop = threading.Event()
        reader_errors: list[BaseException] = []

        def read_loop() -> None:
            try:
                while not stop.is_set():
                    values = cache.get_many(digests)
                    # a value is either absent or exactly what the writer
                    # stored — never a torn/partial state
                    for k, value in enumerate(values):
                        assert value is None or value == float(k)
            except BaseException as exc:  # noqa: BLE001
                reader_errors.append(exc)

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:

            def write(i: int) -> None:
                for k in range(i, len(digests), N_THREADS):
                    cache.put(digests[k], float(k))

            assert run_threads(write) == []
        finally:
            stop.set()
            reader.join()
        assert reader_errors == []
        assert len(cache) == len(digests)
        assert cache.get_many(digests) == [float(k) for k in range(512)]

    def test_hit_miss_accounting_is_exact(self):
        cache = ResultCache.in_memory()
        cache.put("known", 1.0)

        def lookup(i: int) -> None:
            for _ in range(500):
                cache.get("known")
                cache.get(f"unknown-{i}")

        assert run_threads(lookup) == []
        assert cache.stats["hits"] == N_THREADS * 500
        assert cache.stats["misses"] == N_THREADS * 500


# -- Tracer -------------------------------------------------------------------


class TestTracerUnderThreads:
    def test_spans_nest_per_thread_with_unique_ids(self):
        tracer = Tracer()

        def trace(i: int) -> None:
            with tracer.span("outer", thread=i):
                with tracer.span("inner", thread=i):
                    pass

        assert run_threads(trace) == []
        tracer.close()
        assert len(tracer.finished) == 2 * N_THREADS
        ids = [line["id"] for line in tracer.finished]
        assert len(set(ids)) == len(ids)
        outer_by_thread = {
            line["attrs"]["thread"]: line["id"]
            for line in tracer.finished
            if line["name"] == "outer"
        }
        for line in tracer.finished:
            if line["name"] == "inner":
                # each inner span parents under its *own* thread's outer
                assert line["parent"] == outer_by_thread[line["attrs"]["thread"]]
            else:
                assert line["parent"] is None

    def test_file_emission_stays_whole_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path)

        def trace(i: int) -> None:
            for k in range(50):
                tracer.record_span("work", 0.001, {"thread": i, "k": k})

        assert run_threads(trace) == []
        tracer.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        # one header + every span line, each parseable
        assert len(lines) == 1 + N_THREADS * 50
        assert all(json.loads(line) for line in lines)


# -- broker thread-mode campaign ----------------------------------------------


class TestBrokerThreadCampaign:
    N_CAMPAIGNS = 4
    N_POINTS = 6

    def test_concurrent_campaigns_lose_nothing(self, tmp_path):
        """N campaign threads × thread-pool broker over shared state.

        Points are distinct across campaigns, so the exact event ledger is
        predictable: one campaign header per broker, one ``dispatched``
        plus one ``completed`` per point, and one completed-counter
        increment per point — with zero lost lines or increments.
        """
        ledger_path = tmp_path / "campaigns.jsonl"
        cache = ResultCache.in_memory()
        telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())

        def objective(x):
            return float(np.sum(np.asarray(x) ** 2))

        with RunLedger(ledger_path) as ledger:

            def campaign(i: int) -> None:
                broker = EvaluationBroker(
                    FunctionObjective(objective, dim=2, cache_key="stress"),
                    BrokerConfig(executor="thread", n_jobs=2),
                    cache=cache,
                    ledger=ledger,
                    telemetry=telemetry,
                )
                X = np.column_stack(
                    [
                        np.linspace(0.0, 1.0, self.N_POINTS) + i * 7.0,
                        np.full(self.N_POINTS, float(i)),
                    ]
                )
                batch = broker.evaluate_batch(X)
                assert batch.n_evaluated == self.N_POINTS
                assert broker.stats.n_completed == self.N_POINTS

            assert run_threads(campaign, n_threads=self.N_CAMPAIGNS) == []

        replay = read_ledger(ledger_path)
        total = self.N_CAMPAIGNS * self.N_POINTS
        assert not replay.truncated
        assert len(replay.campaigns()) == self.N_CAMPAIGNS
        assert replay.counts["dispatched"] == total
        assert replay.counts["completed"] == total
        assert replay.duplicate_simulations == 0

        snap = telemetry.metrics.snapshot()
        assert snap["counters"]["evaluations.completed"] == total
        assert snap["histograms"]["evaluations.seconds"]["count"] == total

        spans = telemetry.tracer.finished
        assert len(spans) == total
        assert len({line["id"] for line in spans}) == total


# -- ownership tripwires (driven directly, no environment gate) ---------------


def _make_shared_class():
    class Shared:
        def __init__(self) -> None:
            self._lock = threading.RLock()
            self.value = 0

    return instrument_thread_shared(Shared)


class TestOwnershipTripwires:
    def test_owner_thread_writes_freely(self):
        obj = _make_shared_class()()
        obj.value = 1
        assert obj.value == 1

    def test_cross_thread_unlocked_write_raises(self):
        obj = _make_shared_class()()
        errors = run_threads(
            lambda i: setattr(obj, "value", i), n_threads=2
        )
        assert len(errors) == 2
        assert all(isinstance(e, ConcurrencySanitizeError) for e in errors)

    def test_cross_thread_locked_write_allowed(self):
        obj = _make_shared_class()()

        def locked_write(i: int) -> None:
            with obj._lock:
                obj.value += 1

        assert run_threads(locked_write, n_threads=4) == []
        assert obj.value == 4

    def test_hardened_classes_survive_sanitized_stress(self):
        # the real @thread_shared classes, force-instrumented: the whole
        # locked write-path must stay tripwire-silent under threads
        registry_cls = type(
            "InstrumentedRegistry", (MetricsRegistry,), {}
        )
        instrument_thread_shared(registry_cls)
        registry = registry_cls()

        def hammer(i: int) -> None:
            for _ in range(200):
                registry.counter("x").inc()

        assert run_threads(hammer) == []
        assert registry.snapshot()["counters"]["x"] == N_THREADS * 200


# -- lock-order recording -----------------------------------------------------


class TestLockOrder:
    def test_recorder_detects_cycle(self):
        recorder = LockOrderRecorder()
        recorder.acquired("A")
        recorder.acquired("B")  # records A -> B
        recorder.released("B")
        recorder.released("A")
        recorder.acquired("B")
        with pytest.raises(LockOrderError, match="lock-order cycle"):
            recorder.acquired("A")  # A -> B exists; B -> A closes the cycle

    def test_recorder_allows_consistent_order(self):
        recorder = LockOrderRecorder()
        for _ in range(3):
            recorder.acquired("A")
            recorder.acquired("B")
            recorder.released("B")
            recorder.released("A")
        assert recorder.edges() == {"A": ("B",)}

    def test_reentrant_acquire_is_not_a_cycle(self):
        recorder = LockOrderRecorder()
        recorder.acquired("A")
        recorder.acquired("A")  # RLock semantics
        recorder.released("A")
        recorder.released("A")
        assert recorder.edges() == {}

    def test_tracked_locks_raise_before_deadlocking(self):
        recorder = LockOrderRecorder()
        lock_a = TrackedLock("a", recorder)
        lock_b = TrackedLock("b", recorder)
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with pytest.raises(LockOrderError):
                with lock_a:
                    pass
        # the failed acquisition must not leave phantom held state
        with lock_a:
            with lock_b:
                pass

    def test_cross_thread_cycle_detected(self):
        recorder = LockOrderRecorder()
        recorder.acquired("A")
        recorder.acquired("B")
        recorder.released("B")
        recorder.released("A")
        seen: list[BaseException] = []

        def other_order(i: int) -> None:
            recorder.acquired("B")
            try:
                recorder.acquired("A")
            finally:
                recorder.released("B")

        seen = run_threads(other_order, n_threads=1)
        assert len(seen) == 1 and isinstance(seen[0], LockOrderError)


# -- identity when off --------------------------------------------------------


def _probe(env_value: str | None) -> str:
    """Report sanitizer wiring from a fresh interpreter."""
    code = (
        "import threading\n"
        "from repro.utils import sanitize_concurrency as sc\n"
        "from repro.utils.contracts import thread_shared\n"
        "@thread_shared\n"
        "class Probe:\n"
        "    def __init__(self):\n"
        "        self._lock = sc.make_lock('probe.Probe')\n"
        "tracked = isinstance(sc.make_lock('probe'), sc.TrackedLock)\n"
        "instrumented = getattr(Probe, '__concurrency_instrumented__', False)\n"
        "plain = type(sc.make_lock('x')) is type(threading.RLock())\n"
        "if tracked and instrumented:\n"
        "    print('armed')\n"
        "elif not tracked and not instrumented and plain:\n"
        "    print('identity')\n"
        "else:\n"
        "    print('mixed')\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_SANITIZE", None)
    if env_value is not None:
        env["REPRO_SANITIZE"] = env_value
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestSanitizeGate:
    def test_identity_when_off(self):
        assert _probe(None) == "identity"
        assert _probe("0") == "identity"

    def test_armed_when_on(self):
        assert _probe("1") == "armed"

    def test_marker_attribute_survives_both_modes(self):
        # the static pass keys on the decorator; the class attribute is
        # present regardless of the runtime gate
        from repro.runtime.cache import ResultCache as RC

        assert getattr(RC, "__thread_shared__", False)
