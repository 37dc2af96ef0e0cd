"""End-to-end tests for the :class:`~repro.campaign.Campaign` facade.

The acceptance criteria of the observability layer are pinned here on
small UVLO campaigns, one per BO engine:

* the evaluation-span count in the trace equals the ledger's completed
  event count (the two streams are joinable on the broker's eval ids);
* per-phase child durations reconcile with the campaign wall clock;
* a seeded run with telemetry on is bitwise-identical (X, y) to the same
  run with telemetry off — instrumentation must not perturb the numerics.
"""

from __future__ import annotations

import gc
import warnings

import numpy as np
import pytest

from repro.bo import BatchBO, RemboBO, RunSpec, SequentialBO
from repro.campaign import Campaign, CampaignResult
from repro.circuits.behavioral.uvlo import UVLOTestbench
from repro.runtime import (
    EvaluationBroker,
    FunctionObjective,
    ResultCache,
    RunLedger,
    RuntimePolicy,
    read_ledger,
    truncate_mid_run,
)
from repro.sampling import MonteCarloSampler, ScaledSigmaSampler
from repro.telemetry import Telemetry, TelemetryConfig, read_trace
from repro.telemetry.report import reconcile_with_ledger
from repro.utils.validation import unit_cube_bounds


def bowl(x):
    return float(np.sum(np.asarray(x) ** 2))


def bowl_objective(dim=2):
    return FunctionObjective(bowl, dim=dim, bounds=unit_cube_bounds(dim))


def small_rembo(seed=11):
    return RemboBO(
        batch_size=4, embedding_dim=3, tune_every=1, n_restarts=1, seed=seed
    )


#: Reduced acquisition caps that keep the campaign tests fast.
SMALL = dict(global_budget=150, local_budget=40)


def uvlo_spec(testbench, **run):
    return RunSpec(
        bounds=testbench.bounds(),
        n_init=6,
        threshold=testbench.threshold("delta_vthl"),
        **run,
    )


#: One small instance of each BO engine, with the spec it reads.
ENGINE_CASES = {
    "SequentialBO": (
        lambda: SequentialBO(n_restarts=1, seed=11, **SMALL),
        {"budget": 9},
    ),
    "BatchBO": (
        lambda: BatchBO(4, n_restarts=1, seed=11, **SMALL),
        {"n_batches": 2},
    ),
    "RemboBO": (small_rembo, {"n_batches": 2}),
}


class TestCampaignValidation:
    def test_rejects_bare_callable(self):
        with pytest.raises(TypeError, match="FunctionObjective"):
            Campaign(bowl, MonteCarloSampler(10, seed=0))

    def test_rejects_non_engine(self):
        with pytest.raises(TypeError, match="solve"):
            Campaign(bowl_objective(), object())

    def test_spec_overrides_patch_fields(self):
        campaign = Campaign(bowl_objective(), MonteCarloSampler(5, seed=0))
        outcome = campaign.run(RunSpec(threshold=9.0), threshold=0.5)
        assert outcome.spec.threshold == 0.5

    def test_kwargs_build_spec_when_none_given(self):
        campaign = Campaign(bowl_objective(), MonteCarloSampler(5, seed=0))
        outcome = campaign.run(threshold=0.5)
        assert outcome.spec == RunSpec(threshold=0.5)


class TestCampaignTelemetry:
    @pytest.mark.parametrize("engine_name", sorted(ENGINE_CASES))
    def test_trace_reconciles_with_ledger(self, tmp_path, engine_name):
        make_engine, run = ENGINE_CASES[engine_name]
        testbench = UVLOTestbench()
        trace_path = tmp_path / "uvlo.trace.jsonl"
        ledger_path = tmp_path / "uvlo.jsonl"
        with RuntimePolicy.shared(ledger_path=ledger_path) as policy:
            campaign = Campaign(
                testbench.objective("delta_vthl"),
                make_engine(),
                policy=policy,
                telemetry=TelemetryConfig(trace_path=trace_path),
            )
            outcome = campaign.run(uvlo_spec(testbench, **run))

        assert outcome.trace_path == trace_path
        assert outcome.ledger_path == ledger_path
        trace = read_trace(trace_path)
        replay = read_ledger(ledger_path)

        # acceptance: evaluation spans == ledger completed events (cache
        # hits are served without simulating, so they get neither)
        assert len(trace.named("evaluate")) == replay.n_completed
        assert (
            replay.n_completed + replay.n_cache_hits
            == outcome.run.n_evaluations
        )
        # the metrics counters tell the same story
        counters = outcome.metrics["counters"]
        assert counters["evaluations.completed"] == replay.n_completed
        assert counters.get("cache.hits", 0) == replay.n_cache_hits

        # the engine phases all nest under the single campaign root
        (root,) = trace.roots()
        assert root.name == "campaign"
        assert root.attrs["engine"] == engine_name
        assert root.attrs["n_evaluations"] == outcome.run.n_evaluations
        for name in ("init_design", "iteration", "gp_fit", "acq_opt", "evaluate"):
            assert trace.named(name), f"missing {name} spans"
        iterations = trace.named("iteration")
        assert all("fevals" in span.attrs for span in trace.named("acq_opt"))
        if engine_name == "RemboBO":
            assert all("clip_fraction" in span.attrs for span in iterations)

        # every span fits inside the campaign wall clock, and the direct
        # children account for (almost) all of it: phase durations must
        # reconcile with the root to within 5%
        assert all(span.t1 <= root.t1 + 1e-6 for span in trace)
        children = trace.children(root.span_id)
        child_time = sum(span.dt for span in children)
        assert child_time <= root.dt + 1e-6
        assert child_time >= 0.95 * root.dt

    @pytest.mark.parametrize("engine_name", sorted(ENGINE_CASES))
    def test_telemetry_does_not_perturb_results(self, tmp_path, engine_name):
        make_engine, run = ENGINE_CASES[engine_name]
        testbench = UVLOTestbench()
        plain = Campaign(
            testbench.objective("delta_vthl"), make_engine()
        ).run(uvlo_spec(testbench, **run))
        traced = Campaign(
            testbench.objective("delta_vthl"),
            make_engine(),
            telemetry=TelemetryConfig(trace_path=tmp_path / "t.jsonl"),
        ).run(uvlo_spec(testbench, **run))
        np.testing.assert_array_equal(plain.run.X, traced.run.X)
        np.testing.assert_array_equal(plain.run.y, traced.run.y)

    def test_campaign_seed_makes_runs_replicas(self):
        campaign = Campaign(
            bowl_objective(3),
            SequentialBO(seed=0, n_restarts=1),
            seed=7,
        )
        spec = RunSpec(n_init=4, budget=8)
        first = campaign.run(spec)
        second = campaign.run(spec)
        np.testing.assert_array_equal(first.run.X, second.run.X)
        np.testing.assert_array_equal(first.run.y, second.run.y)

    def test_shared_live_telemetry_accumulates(self):
        tele = Telemetry.from_config(TelemetryConfig())
        campaign = Campaign(
            bowl_objective(), MonteCarloSampler(5, seed=0), telemetry=tele
        )
        campaign.run()
        campaign.run()
        # caller-owned telemetry: both runs landed in one tracer
        assert len([s for s in tele.tracer.finished if s["name"] == "campaign"]) == 2
        assert tele.metrics.snapshot()["counters"]["evaluations.completed"] == 10
        tele.close()

    def test_rerun_on_one_trace_path_keeps_one_readable_trace(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        campaign = Campaign(
            bowl_objective(),
            MonteCarloSampler(5, seed=0),
            policy=RuntimePolicy.shared(),
            telemetry=TelemetryConfig(trace_path=trace_path),
            seed=7,
        )
        campaign.run()
        campaign.run()
        # the second run found every point in the shared cache: the file
        # holds its spans alone — one campaign, no simulations, five hits
        trace = read_trace(trace_path)
        assert [s.name for s in trace.roots()] == ["campaign"]
        (sampling,) = trace.named("sampling")
        assert sampling.attrs["cache_hits"] == 5
        assert trace.named("evaluate") == []

    def test_resumed_campaign_reconciles_with_its_final_run(self, tmp_path):
        # the trace file holds the resumed run only, the ledger both runs
        testbench = UVLOTestbench()
        ledger_path = tmp_path / "uvlo.jsonl"

        def run(trace_path, cache):
            policy = RuntimePolicy(cache=cache, ledger=RunLedger(ledger_path))
            Campaign(
                testbench.objective("delta_vthl"),
                small_rembo(),
                policy=policy,
                telemetry=TelemetryConfig(trace_path=trace_path),
            ).run(uvlo_spec(testbench, n_batches=2))
            policy.ledger.close()
            return read_trace(trace_path)

        full = run(tmp_path / "full.trace.jsonl", ResultCache.in_memory())
        agree = "trace and ledger agree on the simulation count"
        assert reconcile_with_ledger(full, str(ledger_path))[-1] == agree

        truncate_mid_run(ledger_path)
        cache = ResultCache.in_memory()
        cache.preload(read_ledger(ledger_path).completed)
        resumed = run(tmp_path / "resumed.trace.jsonl", cache)
        replay = read_ledger(ledger_path)
        assert len(replay.runs()) == 2
        n_spans = len(resumed.named("evaluate"))
        assert 0 < n_spans < replay.n_completed
        lines = reconcile_with_ledger(resumed, str(ledger_path))
        assert lines[-1] == agree, lines
        assert f"ledger completed events: {n_spans}" in lines

    def test_off_by_default(self):
        outcome = Campaign(bowl_objective(), MonteCarloSampler(5, seed=0)).run()
        assert isinstance(outcome, CampaignResult)
        assert outcome.trace_path is None
        assert outcome.ledger_path is None
        assert outcome.metrics == {"counters": {}}
        assert outcome.method == "MC"


#: An engine run and a broker call, each handed ``(objective, telemetry)``.
TELEMETRY_USERS = {
    "SequentialBO": lambda objective, telemetry: SequentialBO(seed=0).solve(
        objective=objective, spec=RunSpec(n_init=3, budget=5), telemetry=telemetry
    ),
    "RemboBO": lambda objective, telemetry: small_rembo().solve(
        objective=objective, spec=RunSpec(n_init=3, n_batches=1), telemetry=telemetry
    ),
    "MC": lambda objective, telemetry: MonteCarloSampler(5, seed=0).solve(
        objective=objective, telemetry=telemetry
    ),
    "SSS": lambda objective, telemetry: ScaledSigmaSampler(5, seed=0).solve(
        objective=objective, telemetry=telemetry
    ),
    "broker": lambda objective, telemetry: EvaluationBroker(
        objective, telemetry=telemetry
    ).evaluate_batch(np.zeros((2, 4))),
}


class TestTelemetryOwnership:
    @pytest.mark.parametrize("user", sorted(TELEMETRY_USERS))
    def test_config_rejected_below_its_owners(self, tmp_path, user):
        # only Campaign / run_campaign_spec and the scheduler materialize a
        # TelemetryConfig, because they close what they build
        calls = []

        def counted_bowl(x):
            calls.append(1)
            return bowl(x)

        objective = FunctionObjective(
            counted_bowl, dim=4, bounds=unit_cube_bounds(4), cache_key="bowl4"
        )
        trace_path = tmp_path / "t.jsonl"
        with pytest.raises(TypeError, match="run_campaign_spec"):
            TELEMETRY_USERS[user](
                objective, TelemetryConfig(trace_path=trace_path)
            )
        assert calls == []
        assert not trace_path.exists()


class TestPolicyLifetime:
    def test_with_block_closes_the_ledger(self, tmp_path):
        testbench = UVLOTestbench()
        ledger_path = tmp_path / "uvlo.jsonl"
        make_engine, run = ENGINE_CASES["SequentialBO"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with RuntimePolicy.shared(ledger_path=ledger_path) as policy:
                Campaign(
                    testbench.objective("delta_vthl"), make_engine(), policy=policy
                ).run(uvlo_spec(testbench, **run))
            # a handle still open here warns when the policy is collected
            del policy
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []
        assert read_ledger(ledger_path).n_completed == run["budget"]

    def test_close_is_idempotent_and_allows_no_ledger(self, tmp_path):
        policy = RuntimePolicy.shared(ledger_path=tmp_path / "l.jsonl")
        policy.close()
        policy.close()
        RuntimePolicy().close()


class TestRunMethodTelemetry:
    def test_run_method_routes_through_solve_with_telemetry(self, tmp_path):
        from repro.experiments.config import uvlo_config
        from repro.experiments.methods import run_method

        testbench = UVLOTestbench()
        cfg = uvlo_config(
            mc_samples=20, n_init=5, n_batches=1, batch_size=3, seed=3
        )
        tele = Telemetry.from_config(
            TelemetryConfig(trace_path=tmp_path / "mc.jsonl")
        )
        result = run_method(
            "MC", testbench, "delta_vthl", cfg, telemetry=tele
        )
        tele.close()
        assert result.n_evaluations == 20
        trace = read_trace(tmp_path / "mc.jsonl")
        assert len(trace.named("evaluate")) == 20
