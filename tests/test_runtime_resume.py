"""Campaign-level runtime tests: fault tolerance, checkpoint/resume, dedup.

These exercise the acceptance criteria of the evaluation runtime on the
UVLO testbench:

* a seeded campaign under a 30% injected transient-failure rate completes
  with exactly the ``X``/``y`` of the fault-free run;
* a campaign killed mid-batch resumes from its ledger to a bitwise-identical
  :class:`RunResult` without re-simulating completed points;
* methods sharing an initial design through one :class:`RuntimePolicy`
  perform zero duplicate simulations;
* an engine's run log is exactly the rows it submitted to its broker and
  the values the broker returned.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bo.engine import RunSpec
from repro.bo.rembo import RemboBO
from repro.circuits.behavioral.uvlo import UVLOTestbench
from repro.experiments.config import ExperimentConfig
from repro.experiments.methods import run_method, shared_initial_data
from repro.runtime import (
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
    read_ledger,
    truncate_mid_run,
)
from repro.runtime.broker import PERSIST_SLICE
from repro.sampling import MonteCarloSampler, ScaledSigmaSampler
from repro.utils.validation import unit_cube_bounds


def small_engine(seed=11):
    return RemboBO(
        batch_size=4,
        embedding_dim=3,
        tune_every=1,
        n_restarts=1,
        seed=seed,
    )


def preloaded_cache(replay):
    """A fresh cache holding a ledger's completed evaluations: the resume."""
    cache = ResultCache.in_memory()
    cache.preload(replay.completed)
    return cache


def clean_objective():
    return UVLOTestbench().objective("delta_vthl")


def faulty_objective():
    return FaultInjectingObjective(
        clean_objective(),
        FaultPlan(failure_rate=0.3, nan_fraction=0.4, seed=5),
    )


class SimulatorGoesDown(Objective):
    """The clean objective for its first ``budget`` rows; every later call
    that would pass that budget raises, as a simulator that went down."""

    def __init__(self, budget: int) -> None:
        self.inner = clean_objective()
        self.budget = budget

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def bounds(self):
        return self.inner.bounds

    @property
    def cache_key(self) -> str:
        return self.inner.cache_key

    @property
    def prefers_batch(self) -> bool:
        return self.inner.prefers_batch

    def evaluate(self, X):
        if len(X) > self.budget:
            raise TransientSimulationError("simulator down")
        self.budget -= len(X)
        return self.inner.evaluate(X)


def run_campaign(objective, runtime=None, seed=11):
    bench = UVLOTestbench()
    return small_engine(seed=seed).solve(
        objective=objective,
        spec=RunSpec(
            bounds=bench.bounds(),
            n_init=6,
            n_batches=2,
            threshold=bench.threshold("delta_vthl"),
        ),
        policy=runtime,
    )


class TestFaultToleratedCampaign:
    def test_transient_faults_leave_results_identical(self):
        clean = run_campaign(clean_objective())
        runtime = RuntimePolicy(
            config=BrokerConfig(max_retries=3, backoff_seconds=0.0)
        )
        faulty = run_campaign(faulty_objective(), runtime=runtime)
        assert np.array_equal(clean.X, faulty.X)
        assert np.array_equal(clean.y, faulty.y)
        assert clean.n_init == faulty.n_init

    def test_faults_were_actually_injected(self):
        runtime = RuntimePolicy(
            config=BrokerConfig(max_retries=3, backoff_seconds=0.0)
        )
        obj = faulty_objective()
        broker = EvaluationBroker(obj, runtime.config)
        rng = np.random.default_rng(0)
        broker.evaluate_batch(rng.uniform(-1, 1, (30, obj.dim)))
        assert broker.stats.n_attempt_failures > 0  # the plan does fire


class TestKillAndResume:
    def _truncate_mid_batch(self, path):
        """Cut the ledger after roughly half its completed events, plus the
        torn line a kill mid-write leaves behind."""
        lines = path.read_text(encoding="utf-8").splitlines()
        completed_seen = 0
        total_completed = sum(1 for li in lines if '"event":"completed"' in li)
        keep = []
        for line in lines:
            keep.append(line)
            if '"event":"completed"' in line:
                completed_seen += 1
                if completed_seen >= total_completed // 2:
                    break
        path.write_text(
            "\n".join(keep) + "\n" + '{"event":"compl', encoding="utf-8"
        )
        return completed_seen

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        ledger_path = tmp_path / "campaign.jsonl"
        policy = RuntimePolicy(ledger=RunLedger(ledger_path))
        uninterrupted = run_campaign(clean_objective(), runtime=policy)
        policy.ledger.close()
        n_simulated = read_ledger(ledger_path).n_completed

        n_kept = self._truncate_mid_batch(ledger_path)
        assert 0 < n_kept < n_simulated

        killed = read_ledger(ledger_path)
        assert killed.truncated
        assert killed.n_completed == n_kept

        resumed_ledger = tmp_path / "resumed.jsonl"
        resumed_policy = RuntimePolicy(
            cache=preloaded_cache(killed), ledger=RunLedger(resumed_ledger)
        )
        resumed = run_campaign(clean_objective(), runtime=resumed_policy)
        resumed_policy.ledger.close()

        # bitwise identical evaluation log
        assert np.array_equal(uninterrupted.X, resumed.X)
        assert np.array_equal(uninterrupted.y, resumed.y)
        assert np.array_equal(uninterrupted.Z, resumed.Z)
        assert uninterrupted.n_init == resumed.n_init

        # completed evaluations were served from the checkpoint, not re-run
        replay = read_ledger(resumed_ledger)
        assert replay.n_cache_hits >= n_kept
        assert replay.n_completed == n_simulated - n_kept

    def test_evaluation_error_stop_resumes_bitwise(self, tmp_path):
        # the simulator goes down two rows into the first iteration's
        # batch: those two rows complete, the other two exhaust their retry
        with RuntimePolicy(ledger=RunLedger(tmp_path / "clean.jsonl")) as policy:
            uninterrupted = run_campaign(clean_objective(), runtime=policy)
        ledger_path = tmp_path / "campaign.jsonl"
        with RuntimePolicy(
            config=BrokerConfig(max_retries=1, backoff_seconds=0.0),
            ledger=RunLedger(ledger_path),
        ) as policy:
            with pytest.raises(EvaluationError, match="simulator down"):
                run_campaign(SimulatorGoesDown(budget=8), runtime=policy)
        stopped = read_ledger(ledger_path)
        assert stopped.n_completed == 8

        # once the simulator is back, the same campaign resumes in place
        with RuntimePolicy(
            cache=preloaded_cache(stopped), ledger=RunLedger(ledger_path)
        ) as policy:
            resumed = run_campaign(clean_objective(), runtime=policy)
        assert np.array_equal(uninterrupted.X, resumed.X)
        assert np.array_equal(uninterrupted.y, resumed.y)
        # each point was simulated once, over the stop and the resume
        replay = read_ledger(ledger_path)
        assert replay.n_completed == read_ledger(tmp_path / "clean.jsonl").n_completed
        assert replay.duplicate_simulations == 0

    def test_multi_slice_batch_resumes_bitwise(self, tmp_path):
        # one 3000-point batch persists in several slices; the kill lands
        # past the first slice, mid-way through the second
        bench = UVLOTestbench()
        spec = RunSpec(bounds=bench.bounds())
        ledger_path = tmp_path / "mc.jsonl"
        with RuntimePolicy.shared(
            ledger_path=ledger_path, cache_path=tmp_path / "cache"
        ) as policy:
            full = MonteCarloSampler(3000, seed=4).solve(
                objective=bench.objective("delta_vthl"), spec=spec, policy=policy
            )
        n_kept = truncate_mid_run(ledger_path)
        assert PERSIST_SLICE < n_kept < 2 * PERSIST_SLICE

        killed = read_ledger(ledger_path)
        assert killed.truncated and killed.n_completed == n_kept
        resumed_policy = RuntimePolicy(
            cache=preloaded_cache(killed), ledger=RunLedger(ledger_path)
        )
        resumed = MonteCarloSampler(3000, seed=4).solve(
            objective=bench.objective("delta_vthl"),
            spec=spec,
            policy=resumed_policy,
        )
        resumed_policy.ledger.close()

        assert np.array_equal(full.X, resumed.X)
        assert np.array_equal(full.y, resumed.y)
        replay = read_ledger(ledger_path)
        assert not replay.truncated
        assert replay.n_completed == 3000
        assert replay.duplicate_simulations == 0

    def test_resume_rejects_mismatched_decimals(self, tmp_path):
        # a ledger written at another rounding addresses other points:
        # preloading its digests would never hit, so reading it fails
        ledger_path = tmp_path / "campaign.jsonl"
        policy = RuntimePolicy(ledger=RunLedger(ledger_path))
        run_campaign(clean_objective(), runtime=policy)
        policy.ledger.close()
        text = ledger_path.read_text(encoding="utf-8")
        assert text.count('"cache_decimals":12') == 1
        ledger_path.write_text(
            text.replace('"cache_decimals":12', '"cache_decimals":6'),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="cache_decimals=6"):
            read_ledger(ledger_path)


class TestRunLog:
    """Each engine's RunResult stacks the rows it submitted to the broker
    and the values the broker returned, injected faults retried away."""

    def _solve(self, tmp_path, monkeypatch, engine, spec):
        batches = []
        evaluate_batch = EvaluationBroker.evaluate_batch

        def spy(broker, X):
            y = evaluate_batch(broker, X)
            batches.append((np.array(X), y))
            return y

        monkeypatch.setattr(EvaluationBroker, "evaluate_batch", spy)
        objective = FaultInjectingObjective(
            FunctionObjective(
                lambda x: float(np.sum(np.asarray(x) ** 2)),
                dim=6,
                bounds=unit_cube_bounds(6),
                cache_key="bowl6",
            ),
            FaultPlan(failure_rate=0.3, seed=1),
        )
        ledger_path = tmp_path / "run.jsonl"
        policy = RuntimePolicy(
            config=BrokerConfig(max_retries=2, backoff_seconds=0.0),
            ledger=RunLedger(ledger_path),
        )
        result = engine.solve(objective=objective, spec=spec, policy=policy)
        policy.ledger.close()

        events = read_ledger(ledger_path).events
        assert any(e["event"] == "failed" for e in events)  # faults fired
        # every submitted row, in submission order, D_0 included
        assert result.X.tobytes() == np.vstack([X for X, _ in batches]).tobytes()
        assert result.y.tobytes() == np.concatenate([y for _, y in batches]).tobytes()
        kept = [e for e in events if e["event"] in ("completed", "cache_hit")]
        assert result.n_evaluations == len(kept)
        return result, batches

    def test_rembo(self, tmp_path, monkeypatch):
        engine = RemboBO(
            batch_size=3,
            embedding_dim=2,
            n_restarts=1,
            global_budget=80,
            local_budget=40,
            seed=3,
        )
        result, _ = self._solve(
            tmp_path, monkeypatch, engine, RunSpec(n_init=8, n_batches=2)
        )
        assert result.n_init == 8
        assert result.Z.shape == (result.n_evaluations, 2) == (14, 2)

    def test_monte_carlo(self, tmp_path, monkeypatch):
        result, _ = self._solve(
            tmp_path, monkeypatch, MonteCarloSampler(40, seed=2), RunSpec()
        )
        assert result.n_init == result.n_evaluations == 40

    def test_sss_fractions_divide_by_samples_per_scale(
        self, tmp_path, monkeypatch
    ):
        sampler = ScaledSigmaSampler(20, scales=(1.0, 2.0, 4.0), seed=4)
        threshold = 0.5
        result, batches = self._solve(
            tmp_path, monkeypatch, sampler, RunSpec(threshold=threshold)
        )
        assert result.n_init == result.n_evaluations == 60
        expected = [np.sum(y < threshold) / 20 for _, y in batches]
        assert result.extra["failure_fractions"].tolist() == expected


class TestSharedRuntimeDedup:
    def test_methods_sharing_initial_design_never_resimulate(self, tmp_path):
        cfg = ExperimentConfig(
            n_init=4,
            n_sequential=2,
            batch_size=3,
            n_batches=1,
            mc_samples=20,
            sss_samples_per_scale=10,
            embedding_dim=3,
            tune_every_sequential=1,
            seed=3,
        )
        tb = UVLOTestbench()
        with RuntimePolicy.shared(ledger_path=tmp_path / "shared.jsonl") as runtime:
            for method in ("EI", "LCB"):
                result = run_method(method, tb, "delta_vthl", cfg, runtime=runtime)
                assert result.n_evaluations == cfg.bo_budget

        replay = read_ledger(tmp_path / "shared.jsonl")
        # the acceptance criterion: zero duplicate simulations across
        # methods sharing an initial design
        assert replay.duplicate_simulations == 0
        # the second method's initial design came entirely from the cache
        assert replay.n_cache_hits >= cfg.n_init

    def test_shared_initial_data_warms_shared_cache(self):
        cfg = ExperimentConfig(
            n_init=5,
            n_sequential=1,
            batch_size=2,
            n_batches=1,
            mc_samples=20,
            sss_samples_per_scale=10,
            seed=3,
        )
        tb = UVLOTestbench()
        runtime = RuntimePolicy.shared()
        X0, y0 = shared_initial_data(tb, "delta_vthl", cfg, runtime=runtime)
        assert X0.shape == (5, tb.dim)
        before = runtime.cache.stats["size"]
        X1, y1 = shared_initial_data(tb, "delta_vthl", cfg, runtime=runtime)
        assert runtime.cache.stats["size"] == before  # nothing re-simulated
        assert np.array_equal(y0, y1)
