"""Tests for the evaluation runtime: objective protocol, cache, ledger, broker.

The fault-injection matrix (timeout→retry→success, retry exhaustion, NaN
quarantine) lives here; campaign-level resume tests are
in ``test_runtime_resume.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bo.records import RunResult
from repro.runtime import (
    DEFAULT_DECIMALS,
    BrokerConfig,
    EvaluationBroker,
    EvaluationError,
    FaultInjectingObjective,
    FaultPlan,
    FunctionObjective,
    Objective,
    ResultCache,
    RunLedger,
    RuntimePolicy,
    TransientSimulationError,
    batch_digests,
    point_digest,
    read_ledger,
    require_objective,
)
from repro.telemetry import MetricsRegistry, Telemetry, Tracer
from repro.utils.validation import unit_cube_bounds

SRC = Path(__file__).resolve().parent.parent / "src"


def bowl(x):
    return float(np.sum(np.asarray(x) ** 2))


class CountingObjective(Objective):
    """A 2-D bowl that counts evaluations and can misbehave per point."""

    def __init__(self, fail_first=0, mode="error"):
        self.calls = 0
        self.per_point: dict[bytes, int] = {}
        self.fail_first = fail_first
        self.mode = mode

    @property
    def dim(self) -> int:
        return 2

    @property
    def bounds(self):
        return unit_cube_bounds(2)

    @property
    def cache_key(self) -> str:
        return "counting-bowl"

    def evaluate(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(X.shape[0])
        for i, x in enumerate(X):
            self.calls += 1
            key = x.tobytes()
            seen = self.per_point.get(key, 0)
            self.per_point[key] = seen + 1
            if seen < self.fail_first:
                if self.mode == "nan":
                    out[i] = float("nan")
                    continue
                if self.mode == "hang":
                    time.sleep(0.3)
                raise TransientSimulationError(f"transient #{seen}")
            out[i] = bowl(x)
        return out


class TestObjectiveProtocol:
    def test_function_objective_row_and_batch(self):
        obj = FunctionObjective(bowl, dim=3)
        assert obj(np.array([1.0, 2.0, 0.0])) == pytest.approx(5.0)
        out = obj(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
        assert out.tolist() == [1.0, 4.0]

    def test_vectorized_function(self):
        obj = FunctionObjective(
            lambda X: np.sum(X**2, axis=1), dim=2, vectorized=True
        )
        out = obj.evaluate(np.array([[1.0, 1.0], [2.0, 0.0]]))
        assert out.tolist() == [2.0, 4.0]

    def test_require_objective_passthrough(self):
        obj = FunctionObjective(bowl, dim=2)
        assert require_objective(obj, "test") is obj

    def test_require_objective_rejects_bare_callable(self):
        with pytest.raises(TypeError, match="FunctionObjective"):
            require_objective(bowl, "EvaluationBroker")

    def test_require_objective_names_caller(self):
        with pytest.raises(TypeError, match="Campaign"):
            require_objective(42, "Campaign")

    def test_cache_key_default_and_override(self):
        assert "d=2" in FunctionObjective(bowl, dim=2).cache_key
        assert FunctionObjective(bowl, dim=2, cache_key="k").cache_key == "k"

    def test_bad_output_length(self):
        obj = FunctionObjective(
            lambda X: np.zeros(3), dim=2, vectorized=True
        )
        with pytest.raises(ValueError):
            obj(np.zeros((2, 2)))


class TestResultCache:
    def test_digest_rounding(self):
        x = np.array([0.5, -0.25])
        same = x + 1e-14  # below the 12-decimal resolution
        different = x + 1e-9
        assert point_digest("k", x) == point_digest("k", same)
        assert point_digest("k", x) != point_digest("k", different)
        assert point_digest("k", x) != point_digest("other", x)

    def test_negative_zero_folds(self):
        assert point_digest("k", np.array([0.0])) == point_digest(
            "k", np.array([-0.0])
        )

    def test_digest_format_is_pinned(self):
        # ledgers and cache shards on disk are addressed by this payload
        # (key | decimals | rounded float64 bytes, -0.0 folded): it must
        # not change
        pinned = "c93dcb681346467adce54830b7c985e53a8618e3e20a2f8692562b34f32ab8c2"
        x = [0.1, -0.0, 0.5]
        assert point_digest("UVLOTestbench:delta_vthl", x) == pinned
        assert batch_digests("UVLOTestbench:delta_vthl", [x]) == [pinned]

    def test_hit_miss_counting(self):
        cache = ResultCache.in_memory()
        d = cache.key_for("k", np.array([1.0]))
        assert cache.get(d) is None
        cache.put(d, 3.5)
        assert cache.get(d) == 3.5
        assert cache.stats == {
            "size": 1, "hits": 1, "misses": 1, "evictions": 0
        }

    def test_preload_does_not_count(self):
        cache = ResultCache.in_memory()
        cache.preload({"abc": 1.0})
        assert len(cache) == 1 and cache.hits == 0 and cache.misses == 0
        assert "abc" in cache

    def test_batch_digests_match_point_digest(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1.0, 1.0, (17, 3))
        X[0] = [0.0, -0.0, 0.5]  # the -0.0 fold must survive batching
        X[1] = X[2] + 1e-14  # below rounding resolution: same digest
        digests = batch_digests("k", X)
        assert digests == [point_digest("k", x) for x in X]
        assert digests[1] == digests[2]

    def test_keys_for_batch_respects_decimals(self):
        # the cache addresses points at the one fixed rounding
        cache = ResultCache.in_memory()
        X = np.array([[0.123456, -0.5]])
        assert cache.keys_for_batch("k", X) == [cache.key_for("k", X[0])]
        assert cache.keys_for_batch("k", X) == batch_digests(
            "k", X, decimals=DEFAULT_DECIMALS
        )
        assert cache.keys_for_batch("k", X) != batch_digests("k", X, decimals=4)

    def test_get_counts_one_hit_or_miss_per_lookup(self):
        cache = ResultCache.in_memory()
        X = np.array([[1.0], [2.0], [3.0]])
        digests = cache.keys_for_batch("k", X)
        cache.put(digests[1], 4.5)
        assert [cache.get(d) for d in digests] == [None, 4.5, None]
        assert cache.stats == {
            "size": 1, "hits": 1, "misses": 2, "evictions": 0
        }


class TestRunLedger:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.append({"event": "campaign", "dim": 2, "cache_key": "k"})
            ledger.append(
                {
                    "event": "completed",
                    "id": 0,
                    "digest": "d0",
                    "x": [0.1, 0.2],
                    "y": 1.5,
                    "seconds": 0.0,
                    "attempt": 0,
                    "cached": False,
                }
            )
        replay = read_ledger(path)
        assert replay.n_completed == 1
        assert replay.completed == {"d0": 1.5}
        assert replay.X.tolist() == [[0.1, 0.2]]
        assert replay.y.tolist() == [1.5]
        assert not replay.truncated
        assert replay.campaigns()[0]["dim"] == 2

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.append({"event": "campaign", "dim": 1})
            ledger.append(
                {
                    "event": "completed",
                    "id": 0,
                    "digest": "d",
                    "x": [0.0],
                    "y": 2.0,
                }
            )
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "compl')  # the interrupted write
        replay = read_ledger(path)
        assert replay.truncated
        assert replay.n_completed == 1

    def test_midfile_garbage_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            'garbage\n{"event": "campaign", "dim": 1}\n', encoding="utf-8"
        )
        with pytest.raises(ValueError, match="corrupt"):
            read_ledger(path)

    def test_empty_ledger_uses_campaign_dim(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.append({"event": "campaign", "dim": 7})
        replay = read_ledger(path)
        assert replay.X.shape == (0, 7)

    def test_duplicate_simulations_counted(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            for _ in range(2):
                ledger.append(
                    {"event": "completed", "digest": "d", "x": [0.0], "y": 1.0}
                )
        assert read_ledger(path).duplicate_simulations == 1

    def test_extend_writes_the_lines_of_one_append_per_event(self, tmp_path):
        events = [
            {"event": "dispatched", "id": k, "attempt": 0, "digest": f"d{k}"}
            for k in range(5)
        ] + [{"event": "completed", "id": 0, "x": [0.1, -0.0], "y": 1e-300}]
        with RunLedger(tmp_path / "one.jsonl") as one:
            for event in events:
                one.append(event)
        with RunLedger(tmp_path / "many.jsonl") as many:
            many.extend(events)
            many.extend([])
        assert (tmp_path / "many.jsonl").read_bytes() == (
            tmp_path / "one.jsonl"
        ).read_bytes()

    def test_extend_of_nothing_creates_no_file(self, tmp_path):
        with RunLedger(tmp_path / "run.jsonl") as ledger:
            ledger.extend(iter(()))
        assert not (tmp_path / "run.jsonl").exists()

    def test_skipped_and_penalized_lines_still_read(self, tmp_path):
        # ledgers written while the broker had skip and penalty policies
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.extend(
                [
                    {"event": "campaign", "dim": 1, "failure_policy": "skip"},
                    {"event": "completed", "digest": "d0", "x": [0.0], "y": 1.0},
                    {"event": "skipped", "id": 1},
                    {"event": "penalized", "id": 2, "y": 99.0},
                ]
            )
        replay = read_ledger(path)
        assert replay.completed == {"d0": 1.0}
        assert replay.counts["skipped"] == replay.counts["penalized"] == 1


class TestBrokerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BrokerConfig(timeout_seconds=0.0)
        with pytest.raises(ValueError):
            BrokerConfig(max_retries=-1)
        with pytest.raises(ValueError):
            BrokerConfig(backoff_seconds=-0.1)

    def test_retry_backoff_is_pinned(self, tmp_path):
        """Two failures of one point sleep ``0.05 * 2**k`` scaled by the
        broker's seed-0 jitter, as the ``retried`` events record."""
        ledger = RunLedger(tmp_path / "run.jsonl")
        broker = EvaluationBroker(
            CountingObjective(fail_first=2),
            BrokerConfig(max_retries=2, backoff_seconds=0.05),
            ledger=ledger,
        )
        broker.evaluate_batch(np.array([[0.5, 0.5]]))
        ledger.close()
        events = read_ledger(ledger.path).events
        assert [e["backoff_seconds"] for e in events if e["event"] == "retried"] == [
            0.05136961687321454,
            0.09539573427527742,
        ]


class TestBrokerFaultMatrix:
    def test_transient_error_retries_to_success(self):
        obj = CountingObjective(fail_first=2)
        broker = EvaluationBroker(
            obj, BrokerConfig(max_retries=2, backoff_seconds=0.0)
        )
        y = broker.evaluate_batch(np.array([[0.5, 0.5]]))
        assert y.tolist() == [0.5]
        assert broker.stats.n_retries == 2
        assert broker.stats.n_attempt_failures == 2
        assert broker.stats.n_completed == 1

    def test_nan_quarantined_and_retried(self):
        obj = CountingObjective(fail_first=1, mode="nan")
        broker = EvaluationBroker(
            obj, BrokerConfig(max_retries=1, backoff_seconds=0.0)
        )
        y = broker.evaluate_batch(np.array([[0.5, 0.0]]))
        assert y.tolist() == [0.25]  # NaN never reached the log
        assert broker.stats.n_attempt_failures == 1

    def test_timeout_then_retry_succeeds(self):
        obj = CountingObjective(fail_first=1, mode="hang")
        broker = EvaluationBroker(
            obj,
            BrokerConfig(
                timeout_seconds=0.05, max_retries=1, backoff_seconds=0.0
            ),
        )
        y = broker.evaluate_batch(np.array([[0.5, 0.5]]))
        assert y.tolist() == [0.5]
        assert broker.stats.n_retries == 1

    def test_hung_point_does_not_hold_the_process_open(self, tmp_path):
        # the abandoned deadline threads are daemons: the child exits as
        # soon as its batches raise, not when the 30 s simulations would end
        script = textwrap.dedent(
            """
            import sys
            import time
            import numpy as np
            from repro.runtime import (
                BrokerConfig, EvaluationBroker, EvaluationError,
                FunctionObjective, ResultCache, RunLedger, read_ledger,
            )
            def hang(X):
                if np.any(X[:, 0] > 0.9):
                    time.sleep(30.0)
                return np.sum(X**2, axis=1)
            X = np.array([[0.1, 0.2], [0.95, 0.0], [-0.3, 0.4]])
            for k, path in enumerate(sys.argv[1:3]):
                cache = ResultCache.in_memory()
                if k:  # the rerun resumes from the first run's ledger
                    cache.preload(read_ledger(sys.argv[1]).completed)
                with RunLedger(path) as ledger:
                    broker = EvaluationBroker(
                        FunctionObjective(hang, dim=2, vectorized=True),
                        BrokerConfig(timeout_seconds=0.1, max_retries=0),
                        cache=cache,
                        ledger=ledger,
                    )
                    try:
                        broker.evaluate_batch(X)
                    except EvaluationError as error:
                        print(error)
            """
        )
        first, rerun = tmp_path / "first.jsonl", tmp_path / "rerun.jsonl"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", script, str(first), str(rerun)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "evaluation 1 failed after 1 attempts: evaluation exceeded 0.1s"
        ] * 2
        assert elapsed < 10.0
        # the healthy rows completed before the hung one raised
        healthy = np.sum(np.array([[0.1, 0.2], [-0.3, 0.4]]) ** 2, axis=1)
        assert sorted(read_ledger(first).completed.values()) == healthy.tolist()
        # the rerun served them from the preloaded cache: only the hung
        # point was dispatched again
        events = read_ledger(rerun).events
        assert [e["id"] for e in events if e["event"] == "dispatched"] == [1]
        assert [e["id"] for e in events if e["event"] == "cache_hit"] == [0, 2]

    def test_exhaustion_raise_policy(self):
        obj = CountingObjective(fail_first=10)
        broker = EvaluationBroker(
            obj, BrokerConfig(max_retries=1, backoff_seconds=0.0)
        )
        with pytest.raises(EvaluationError):
            broker.evaluate_batch(np.array([[0.5, 0.5]]))


class TestBrokerCache:
    def test_repeat_batch_served_from_cache(self):
        obj = CountingObjective()
        broker = EvaluationBroker(obj)
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        first = broker.evaluate_batch(X)
        second = broker.evaluate_batch(X)
        assert obj.calls == 2  # no re-simulation
        assert second.tolist() == first.tolist()
        assert broker.stats.n_cache_hits == 2

    def test_within_batch_duplicates_simulate_once(self):
        obj = CountingObjective()
        telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        broker = EvaluationBroker(obj, telemetry=telemetry)
        with telemetry.tracer.span("iteration") as phase:
            y = broker.evaluate_batch(np.array([[0.1, 0.1]] * 3))
        assert obj.calls == 1
        assert y.tolist() == [bowl([0.1, 0.1])] * 3
        # one claimed miss, two repeats served as hits — the same split
        # in the stats, the registry and the phase span
        counters = telemetry.snapshot()["counters"]
        assert counters["cache.hits"] == broker.stats.n_cache_hits == 2
        assert counters["cache.misses"] == broker.stats.n_cache_misses == 1
        assert phase.attrs["cache_hits"] == 2
        assert phase.attrs["cache_misses"] == 1

    def test_shared_cache_across_brokers(self):
        obj = CountingObjective()
        policy = RuntimePolicy.shared()
        x = np.array([[0.2, 0.2]])
        EvaluationBroker(obj, cache=policy.cache).evaluate_batch(x)
        EvaluationBroker(obj, cache=policy.cache).evaluate_batch(x)
        assert obj.calls == 1

    def test_repeat_of_an_evicted_point_is_a_cache_hit(self, tmp_path):
        # the LRU bound evicts the first copy of row 0 before the batch
        # resolves its repeat: the repeat is still served like a cache hit
        ledger = RunLedger(tmp_path / "run.jsonl")
        broker = EvaluationBroker(
            CountingObjective(),
            cache=ResultCache.in_memory(max_entries=2),
            ledger=ledger,
        )
        X = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.4, 0.4], [0.1, 0.1]])
        y = broker.evaluate_batch(X)
        ledger.close()
        assert read_ledger(ledger.path).counts == {
            "campaign": 1,
            "dispatched": 4,
            "completed": 4,
            "cache_hit": 1,
        }
        assert broker.stats.n_cache_hits == 1
        assert y[4] == y[0]

    def test_ledger_records_events(self, tmp_path):
        obj = CountingObjective(fail_first=1)
        ledger = RunLedger(tmp_path / "run.jsonl")
        broker = EvaluationBroker(
            obj, BrokerConfig(max_retries=1, backoff_seconds=0.0), ledger=ledger
        )
        broker.evaluate_batch(np.array([[0.5, 0.5]]))
        broker.evaluate_batch(np.array([[0.5, 0.5]]))
        ledger.close()
        replay = read_ledger(ledger.path)
        assert replay.counts["campaign"] == 1
        assert replay.counts["failed"] == 1
        assert replay.counts["retried"] == 1
        assert replay.counts["completed"] == 1
        assert replay.counts["cache_hit"] == 1
        assert replay.duplicate_simulations == 0


class ScriptedObjective(Objective):
    """A 2-D bowl with scripted NaN rows: ``x0 > 0.8`` on every call,
    ``x1 > 0.8`` on the point's first call only."""

    def __init__(self) -> None:
        self.seen: set[bytes] = set()

    @property
    def dim(self) -> int:
        return 2

    @property
    def bounds(self):
        return unit_cube_bounds(2)

    @property
    def cache_key(self) -> str:
        return "scripted-bowl"

    def evaluate(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.sum(X**2, axis=1)
        for i, x in enumerate(X):
            if x[0] > 0.8 or (x[1] > 0.8 and x.tobytes() not in self.seen):
                out[i] = np.nan
            self.seen.add(x.tobytes())
        return out


class ShardCheckingLedger(RunLedger):
    """A ledger that checks each ``completed`` digest is already in the
    cache's shard files when its line is written."""

    def __init__(self, path, shards) -> None:
        super().__init__(path)
        self.shards = shards
        self.n_checked = 0

    def extend(self, events) -> None:
        events = list(events)
        stored = {
            json.loads(line)["d"]
            for shard in self.shards.glob("shard-*.jsonl")
            for line in shard.read_text(encoding="utf-8").splitlines()
        }
        for event in events:
            if event["event"] == "completed":
                assert event["digest"] in stored
                self.n_checked += 1
        super().extend(events)


class TestBatchedPersistence:
    @pytest.mark.parametrize("max_entries", [None, 3])
    def test_put_many_matches_put_calls(self, tmp_path, max_entries):
        rng = np.random.default_rng(3)
        digests = [point_digest("bowl", x) for x in rng.uniform(-1, 1, (40, 2))]
        # repeats, including re-puts of digests an LRU bound has evicted
        order = digests + digests[::3] + digests[:5]
        values = [float(k) for k in range(len(order))]
        with ResultCache.open(tmp_path / "one", max_entries=max_entries) as one:
            for digest, value in zip(order, values):
                one.put(digest, value)
        with ResultCache.open(tmp_path / "many", max_entries=max_entries) as many:
            many.put_many(order, values)
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert sorted(p.name for p in (tmp_path / "many").iterdir()) == names
        for name in names:
            assert (tmp_path / "many" / name).read_bytes() == (
                tmp_path / "one" / name
            ).read_bytes()
        assert list(many._store.items()) == list(one._store.items())
        assert many.stats == one.stats
        if max_entries is not None:
            assert many.evictions > 0

    def test_fault_injected_batch_keeps_event_sequence(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        with ResultCache.open(tmp_path / "cache") as cache:
            broker = EvaluationBroker(
                ScriptedObjective(),
                BrokerConfig(max_retries=1, backoff_seconds=0.0),
                cache=cache,
                ledger=ledger,
            )
            hit, flaky, broken, healthy = [0.1, 0.1], [0.2, 0.9], [0.9, 0.2], [0.3, 0.3]
            broker.evaluate_batch(np.array([hit]))
            with pytest.raises(
                EvaluationError, match="evaluation 3 failed after 2 attempts"
            ):
                broker.evaluate_batch(
                    np.array([hit, flaky, broken, healthy, flaky, broken])
                )
        ledger.close()
        events = read_ledger(ledger.path).events
        # the sequence the per-point writers produced, one write per event;
        # the broken point raises once its last attempt's outcome is logged
        assert [(e["event"], e.get("id"), e.get("attempt")) for e in events] == [
            ("campaign", None, None),
            ("dispatched", 0, 0),
            ("completed", 0, 0),
            ("cache_hit", 1, None),
            ("dispatched", 2, 0),
            ("dispatched", 3, 0),
            ("dispatched", 4, 0),
            ("failed", 2, 0),
            ("failed", 3, 0),
            ("completed", 4, 0),
            ("retried", 2, 1),
            ("retried", 3, 1),
            ("dispatched", 2, 1),
            ("dispatched", 3, 1),
            ("completed", 2, 1),
            ("failed", 3, 1),
        ]

    def test_completed_lines_follow_their_shard_lines(self, tmp_path):
        objective = FaultInjectingObjective(
            FunctionObjective(
                lambda X: np.sum(X**2, axis=1), dim=3, vectorized=True
            ),
            FaultPlan(failure_rate=0.2, nan_fraction=1.0, seed=2),
        )
        ledger = ShardCheckingLedger(tmp_path / "run.jsonl", tmp_path / "cache")
        with ResultCache.open(tmp_path / "cache") as cache:
            broker = EvaluationBroker(
                objective,
                BrokerConfig(max_retries=2, backoff_seconds=0.0),
                cache=cache,
                ledger=ledger,
            )
            X = np.random.default_rng(5).uniform(-1, 1, (2500, 3))
            broker.evaluate_batch(X)
        ledger.close()
        assert broker.stats.n_retries > 0
        assert ledger.n_checked == 2500


class TestRecorderIntegration:
    def test_runresult_total_is_derived(self):
        split = RunResult(
            X=np.zeros((1, 2)),
            y=np.zeros(1),
            n_init=1,
            eval_seconds=1.5,
            overhead_seconds=0.5,
        )
        assert split.total_seconds == pytest.approx(2.0)
        with pytest.raises(TypeError):
            RunResult(
                X=np.zeros((1, 2)), y=np.zeros(1), n_init=1, runtime_seconds=2.0
            )


class TestFaultInjection:
    def test_deterministic_per_point(self):
        inner = FunctionObjective(bowl, dim=2, cache_key="b")
        plan = FaultPlan(failure_rate=1.0, max_faults_per_point=3, seed=7)
        a, b = (FaultInjectingObjective(inner, plan) for _ in range(2))
        x = np.array([[0.3, 0.4]])
        outcomes = []
        for wrapped in (a, b):
            attempts = []
            for _ in range(5):
                try:
                    attempts.append(float(wrapped.evaluate(x)[0]))
                except TransientSimulationError:
                    attempts.append("fault")
            outcomes.append(attempts)
        assert outcomes[0] == outcomes[1]  # same seed, same schedule
        assert "fault" in outcomes[0]
        assert outcomes[0][-1] == pytest.approx(0.25)  # eventually clean

    def test_transparent_identity(self):
        inner = FunctionObjective(bowl, dim=2, cache_key="b")
        wrapped = FaultInjectingObjective(inner, FaultPlan(failure_rate=0.0))
        assert wrapped.cache_key == inner.cache_key
        assert wrapped.dim == inner.dim
        assert np.array_equal(wrapped.bounds, inner.bounds) or (
            wrapped.bounds is None and inner.bounds is None
        )

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(nan_fraction=0.8, hang_fraction=0.5)
        with pytest.raises(ValueError):
            FaultPlan(max_faults_per_point=0)
