"""Tests for the evaluation runtime: objective protocol, cache, ledger, broker.

The fault-injection matrix (timeout→retry→success, retry exhaustion per
failure policy, NaN quarantine) lives here; campaign-level resume tests are
in ``test_runtime_resume.py``.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.bo.records import RunRecorder, RunResult
from repro.runtime import (
    BrokerConfig,
    EvaluationBroker,
    EvaluationError,
    FaultInjectingObjective,
    FaultInjectingTestbench,
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

    def test_pickles_by_value(self):
        cache = ResultCache.in_memory()
        cache.put("d", 2.0)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get("d") == 2.0
        clone.put("e", 1.0)  # lock was recreated

    def test_rejects_negative_decimals(self):
        with pytest.raises(ValueError):
            ResultCache.in_memory(decimals=-1)

    def test_batch_digests_match_point_digest(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1.0, 1.0, (17, 3))
        X[0] = [0.0, -0.0, 0.5]  # the -0.0 fold must survive batching
        X[1] = X[2] + 1e-14  # below rounding resolution: same digest
        digests = batch_digests("k", X)
        assert digests == [point_digest("k", x) for x in X]
        assert digests[1] == digests[2]

    def test_keys_for_batch_respects_decimals(self):
        cache = ResultCache.in_memory(decimals=4)
        X = np.array([[0.123456, -0.5]])
        assert cache.keys_for_batch("k", X) == [cache.key_for("k", X[0])]
        assert cache.keys_for_batch("k", X) != batch_digests("k", X)

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

    def test_pickles_without_handle(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        ledger.append({"event": "campaign"})
        clone = pickle.loads(pickle.dumps(ledger))
        clone.append({"event": "campaign"})  # re-opens lazily
        assert len(read_ledger(ledger.path).events) == 2


class TestBrokerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BrokerConfig(timeout_seconds=0.0)
        with pytest.raises(ValueError):
            BrokerConfig(max_retries=-1)
        with pytest.raises(ValueError):
            BrokerConfig(failure_policy="explode")
        with pytest.raises(ValueError):
            BrokerConfig(failure_policy="penalty")  # needs a value
        with pytest.raises(ValueError):
            BrokerConfig(failure_policy="penalty", penalty_value=float("nan"))
        with pytest.raises(ValueError):
            BrokerConfig(executor="gpu")
        with pytest.raises(ValueError):
            BrokerConfig(backoff_jitter=1.5)

    def test_executor_resolution(self):
        assert BrokerConfig().resolve_executor() == "inline"
        assert BrokerConfig(timeout_seconds=1.0).resolve_executor() == "thread"
        assert BrokerConfig(n_jobs=4).resolve_executor() == "thread"
        assert BrokerConfig(executor="process").resolve_executor() == "process"


class TestBrokerFaultMatrix:
    def test_transient_error_retries_to_success(self):
        obj = CountingObjective(fail_first=2)
        broker = EvaluationBroker(
            obj, BrokerConfig(max_retries=2, backoff_seconds=0.0)
        )
        batch = broker.evaluate_batch(np.array([[0.5, 0.5]]))
        assert batch.y[0] == pytest.approx(0.5)
        assert broker.stats.n_retries == 2
        assert broker.stats.n_attempt_failures == 2
        assert broker.stats.n_completed == 1

    def test_nan_quarantined_and_retried(self):
        obj = CountingObjective(fail_first=1, mode="nan")
        broker = EvaluationBroker(
            obj, BrokerConfig(max_retries=1, backoff_seconds=0.0)
        )
        batch = broker.evaluate_batch(np.array([[0.5, 0.0]]))
        assert batch.y[0] == pytest.approx(0.25)  # NaN never reached the log
        assert broker.stats.n_attempt_failures == 1

    def test_timeout_then_retry_succeeds(self):
        obj = CountingObjective(fail_first=1, mode="hang")
        broker = EvaluationBroker(
            obj,
            BrokerConfig(
                timeout_seconds=0.05, max_retries=1, backoff_seconds=0.0
            ),
        )
        batch = broker.evaluate_batch(np.array([[0.5, 0.5]]))
        assert batch.y[0] == pytest.approx(0.5)
        assert broker.stats.n_retries == 1

    def test_exhaustion_raise_policy(self):
        obj = CountingObjective(fail_first=10)
        broker = EvaluationBroker(
            obj, BrokerConfig(max_retries=1, backoff_seconds=0.0)
        )
        with pytest.raises(EvaluationError):
            broker.evaluate_batch(np.array([[0.5, 0.5]]))

    def test_exhaustion_skip_policy(self):
        obj = CountingObjective(fail_first=10)
        broker = EvaluationBroker(
            obj,
            BrokerConfig(
                max_retries=0, backoff_seconds=0.0, failure_policy="skip"
            ),
        )
        X = np.array([[0.5, 0.5], [0.1, 0.2], [0.3, 0.3]])
        obj.per_point[X[1].tobytes()] = 10**6  # make only the middle row work
        batch = broker.evaluate_batch(X)
        assert batch.n_submitted == 3
        assert batch.index.tolist() == [1]
        assert batch.X.tolist() == [[0.1, 0.2]]
        assert broker.stats.n_skipped == 2

    def test_exhaustion_penalty_policy(self):
        obj = CountingObjective(fail_first=10)
        broker = EvaluationBroker(
            obj,
            BrokerConfig(
                max_retries=0,
                backoff_seconds=0.0,
                failure_policy="penalty",
                penalty_value=99.0,
            ),
        )
        batch = broker.evaluate_batch(np.array([[0.5, 0.5]]))
        assert batch.y.tolist() == [99.0]
        assert broker.stats.n_penalized == 1
        # a penalty is not a measurement: it must not enter the cache
        digest = broker.cache.key_for(obj.cache_key, np.array([0.5, 0.5]))
        assert digest not in broker.cache

    def test_single_point_skip_returns_none(self):
        obj = CountingObjective(fail_first=10)
        broker = EvaluationBroker(
            obj,
            BrokerConfig(
                max_retries=0, backoff_seconds=0.0, failure_policy="skip"
            ),
        )
        assert broker.evaluate(np.array([0.5, 0.5])) is None

    @pytest.mark.parametrize(
        "policy, counter, field, event",
        [
            ("skip", "evaluations.skipped", "n_skipped", "skipped"),
            ("penalty", "evaluations.penalized", "n_penalized", "penalized"),
        ],
    )
    def test_failed_duplicate_counts_in_every_record(
        self, tmp_path, policy, counter, field, event
    ):
        telemetry = Telemetry(metrics=MetricsRegistry())
        ledger = RunLedger(tmp_path / "run.jsonl")
        broker = EvaluationBroker(
            CountingObjective(fail_first=10, mode="nan"),
            BrokerConfig(
                max_retries=0,
                backoff_seconds=0.0,
                failure_policy=policy,
                penalty_value=99.0 if policy == "penalty" else None,
            ),
            ledger=ledger,
            telemetry=telemetry,
        )
        broker.evaluate_batch(np.array([[0.5, 0.5]] * 2))
        ledger.close()
        # the in-batch repeat mirrors the first point's outcome: both
        # points count, in the registry as in the stats and the ledger
        assert telemetry.snapshot()["counters"][counter] == 2
        assert getattr(broker.stats, field) == 2
        assert read_ledger(ledger.path).counts[event] == 2


class TestBrokerCache:
    def test_repeat_batch_served_from_cache(self):
        obj = CountingObjective()
        broker = EvaluationBroker(obj)
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        first = broker.evaluate_batch(X)
        second = broker.evaluate_batch(X)
        assert obj.calls == 2  # no re-simulation
        assert second.y.tolist() == first.y.tolist()
        assert broker.stats.n_cache_hits == 2

    def test_within_batch_duplicates_simulate_once(self):
        obj = CountingObjective()
        telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        broker = EvaluationBroker(obj, telemetry=telemetry)
        with telemetry.tracer.span("iteration") as phase:
            batch = broker.evaluate_batch(np.array([[0.1, 0.1]] * 3))
        assert obj.calls == 1
        assert batch.y.tolist() == [bowl([0.1, 0.1])] * 3
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


class TestRecorderIntegration:
    def test_broker_feeds_recorder(self):
        recorder = RunRecorder(method="T", model_dim=2)
        broker = EvaluationBroker(CountingObjective(), recorder=recorder)
        broker.evaluate_batch(np.array([[0.1, 0.2]]))
        recorder.mark_initial()
        broker.evaluate_batch(np.array([[0.3, 0.4]]))
        result = recorder.finalize(
            total_seconds=1.0, eval_seconds=broker.stats.eval_seconds
        )
        assert result.n_evaluations == 2
        assert result.n_init == 1
        assert result.method == "T"
        assert result.eval_seconds + result.overhead_seconds == pytest.approx(
            result.total_seconds
        )

    def test_recorder_mismatched_lengths(self):
        with pytest.raises(ValueError):
            RunRecorder().extend(np.zeros((2, 2)), np.zeros(3))

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

    def test_testbench_wrapper_delegates(self):
        from repro.circuits.behavioral.uvlo import UVLOTestbench

        tb = FaultInjectingTestbench(UVLOTestbench(), FaultPlan(failure_rate=0.0))
        assert tb.dim == 19
        obj = tb.objective("delta_vthl")
        assert obj.cache_key == "UVLOTestbench:delta_vthl"
        assert obj is tb.objective("delta_vthl")  # cached wrapper

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(nan_fraction=0.8, hang_fraction=0.5)
        with pytest.raises(ValueError):
            FaultPlan(max_faults_per_point=0)
