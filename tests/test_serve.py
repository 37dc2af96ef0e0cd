"""Tests for the ``repro.serve`` campaign service layer.

Covers the service contract end to end: spec validation, the persistent
cache factories (shard round-trip, torn lines, LRU eviction, stats),
N≥4 concurrent campaigns over one shared cache with zero lost ledger
events and zero duplicate simulations, and kill + ``--resume`` bitwise
reproduction — both in-process (truncated ledgers) and with a real
SIGKILL of a ``python -m repro.serve`` subprocess.

CI runs this file bare and under ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.bo.engine import RunSpec
from repro.campaign import Campaign, CampaignSpec, run_campaign_spec
from repro.circuits.behavioral.uvlo import UVLOTestbench
from repro.experiments.config import uvlo_config
from repro.experiments.methods import method_campaign
from repro.runtime.broker import RuntimePolicy
from repro.runtime.cache import ResultCache
from repro.runtime.faults import DelayObjective
from repro.runtime.ledger import read_ledger
from repro.runtime.objective import FunctionObjective
from repro.runtime.replay import truncate_mid_run, verify_replay
from repro.sampling.monte_carlo import MonteCarloSampler
from repro.serve import CampaignScheduler, build_spec, load_jobs
from repro.serve.service import main as serve_main
from repro.telemetry import Telemetry, Tracer


def bowl_objective(dim: int = 2) -> FunctionObjective:
    return FunctionObjective(
        lambda X: np.sum(X**2, axis=1),
        dim=dim,
        vectorized=True,
        cache_key=f"bowl[d={dim}]",
    )


# -- CampaignSpec -------------------------------------------------------------


class TestCampaignSpec:
    def test_requires_objective(self):
        with pytest.raises(TypeError, match="FunctionObjective"):
            CampaignSpec(objective=42, engine=MonteCarloSampler(3, seed=0))

    def test_rejects_non_engine_non_factory(self):
        with pytest.raises(TypeError, match="solve"):
            CampaignSpec(objective=bowl_objective(), engine=object())

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            CampaignSpec(
                objective=bowl_objective(),
                engine=MonteCarloSampler(3, seed=0),
                name="",
            )
        with pytest.raises(ValueError, match="filesystem-safe"):
            CampaignSpec(
                objective=bowl_objective(),
                engine=MonteCarloSampler(3, seed=0),
                name="a/b",
            )

    def test_rejects_bool_priority(self):
        with pytest.raises(TypeError, match="priority"):
            CampaignSpec(
                objective=bowl_objective(),
                engine=MonteCarloSampler(3, seed=0),
                priority=True,
            )

    def test_factory_makes_fresh_engines(self):
        spec = CampaignSpec(
            objective=bowl_objective(),
            engine=lambda: MonteCarloSampler(3, seed=0),
        )
        assert spec.make_engine() is not spec.make_engine()

    def test_factory_returning_junk_raises(self):
        spec = CampaignSpec(
            objective=bowl_objective(), engine=lambda: "nope"
        )
        with pytest.raises(TypeError, match="factory"):
            spec.make_engine()

    def test_campaign_is_thin_wrapper(self):
        engine = MonteCarloSampler(5, seed=0)
        campaign = Campaign(bowl_objective(), engine, seed=3)
        assert isinstance(campaign.spec, CampaignSpec)
        assert campaign.engine is engine
        assert campaign.seed == 3
        outcome = campaign.run(
            bounds=np.array([[-1.0, 1.0]] * 2), threshold=0.0
        )
        assert outcome.name == "campaign"
        assert outcome.run.n_evaluations == 5

    def test_one_spec_drives_both_paths(self):
        spec = CampaignSpec(
            objective=bowl_objective(),
            engine=lambda: MonteCarloSampler(5, seed=0),
            run_spec=RunSpec(
                bounds=np.array([[-1.0, 1.0]] * 2), threshold=0.0
            ),
            seed=3,
            name="shared",
        )
        direct = run_campaign_spec(spec)
        again = run_campaign_spec(spec)
        np.testing.assert_array_equal(direct.run.X, again.run.X)
        np.testing.assert_array_equal(direct.run.y, again.run.y)
        assert direct.name == "shared"


# -- persistent ResultCache ---------------------------------------------------


class TestPersistentCache:
    def test_open_round_trip(self, tmp_path):
        store = tmp_path / "cache"
        with ResultCache.open(store) as cache:
            cache.put("aa11", 1.5)
            cache.put("bb22", -2.5)
        with ResultCache.open(store) as reloaded:
            assert reloaded.persistent
            assert len(reloaded) == 2
            assert reloaded.get("aa11") == 1.5
            assert reloaded.get("bb22") == -2.5

    def test_values_round_trip_bitwise(self, tmp_path):
        value = float(np.nextafter(0.1, 1.0))
        with ResultCache.open(tmp_path / "c") as cache:
            cache.put("dd", value)
        with ResultCache.open(tmp_path / "c") as reloaded:
            assert reloaded.get("dd") == value

    def test_decimals_mismatch_rejected(self, tmp_path):
        with ResultCache.open(tmp_path / "c"):
            pass
        meta = tmp_path / "c" / "meta.json"
        assert meta.read_text(encoding="utf-8") == '{"version":1,"decimals":12}\n'
        # a store written at another rounding addresses other points
        meta.write_text('{"version":1,"decimals":6}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="decimals=6"):
            ResultCache.open(tmp_path / "c")

    def test_torn_final_shard_line_tolerated(self, tmp_path):
        with ResultCache.open(tmp_path / "c") as cache:
            cache.put("aa", 1.0)
            [shard] = (tmp_path / "c").glob("shard-*.jsonl")
        with shard.open("a", encoding="utf-8") as fh:
            fh.write('{"d": "tor')
        with ResultCache.open(tmp_path / "c") as cache:
            assert cache.get("aa") == 1.0
            assert len(cache) == 1

    def test_mid_file_garbage_raises(self, tmp_path):
        with ResultCache.open(tmp_path / "c") as cache:
            cache.put("aa", 1.0)
            [shard] = (tmp_path / "c").glob("shard-*.jsonl")
        shard.write_text('garbage\n{"d":"aa","y":1.0}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt"):
            ResultCache.open(tmp_path / "c")

    def test_lru_eviction(self):
        cache = ResultCache.in_memory(max_entries=3)
        for i in range(3):
            cache.put(f"d{i}", float(i))
        cache.get("d0")  # touch: d1 becomes the eviction candidate
        cache.put("d3", 3.0)
        assert cache.evictions == 1
        assert cache.get("d1") is None
        assert cache.get("d0") == 0.0
        assert cache.get("d3") == 3.0
        assert cache.stats["size"] == 3

    def test_persistent_eviction_is_memory_only(self, tmp_path):
        with ResultCache.open(tmp_path / "c", max_entries=2) as cache:
            for i in range(4):
                cache.put(f"d{i}", float(i))
            assert len(cache) == 2
            assert cache.evictions == 2
        # reload honors the bound too (append-only shards keep everything,
        # the newest max_entries win)
        with ResultCache.open(tmp_path / "c", max_entries=2) as cache:
            assert len(cache) == 2
        with ResultCache.open(tmp_path / "c") as unbounded:
            assert len(unbounded) == 4

    def test_stats_count_hits_misses_evictions(self):
        cache = ResultCache.in_memory(max_entries=1)
        cache.put("a", 1.0)
        cache.get("a")
        cache.get("missing")
        cache.put("b", 2.0)  # evicts "a"
        assert cache.stats == {
            "size": 1, "hits": 1, "misses": 1, "evictions": 1
        }

    def test_bare_constructor_raises(self):
        with pytest.raises(TypeError, match=r"in_memory\(\).*open\(path\)"):
            ResultCache()

    def test_factories_do_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ResultCache.in_memory()
            ResultCache.open(tmp_path / "c").close()


# -- job files ----------------------------------------------------------------


class TestJobs:
    def _payload(self, **over):
        payload = {
            "name": "j",
            "seed": 5,
            "testbench": "uvlo",
            "measure": "delta_vthl",
            "engine": {"kind": "MC", "n_samples": 4},
        }
        payload.update(over)
        return payload

    def test_build_spec_resolves_threshold(self):
        spec = build_spec(self._payload())
        # the measure's spec threshold, as in a table cell
        assert spec.run_spec.threshold == UVLOTestbench().threshold("delta_vthl")
        assert spec.run_spec.bounds is not None
        assert spec.name == "j"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown job keys"):
            build_spec(self._payload(bogus=1))
        with pytest.raises(ValueError, match="unknown run keys"):
            build_spec(self._payload(run={"bogus": 1}))

    def test_unknown_engine_kind_rejected(self):
        with pytest.raises(ValueError, match="engine.kind"):
            build_spec(self._payload(engine={"kind": "gradient-descent"}))

    @pytest.mark.parametrize(
        "engine, bad",
        [
            ({"kind": "This work", "batch_sizee": 4}, "batch_sizee"),
            ({"kind": "pBO", "batch_size": 4, "n_jobs": 2}, "n_jobs"),
            # engines take budgets and an ard flag, not factories
            ({"kind": "This work", "kernel_factory": "ard"}, "kernel_factory"),
            (
                {"kind": "pBO", "acquisition_optimizer_factory": "direct"},
                "acquisition_optimizer_factory",
            ),
        ],
    )
    def test_unknown_engine_keys_rejected_at_load(self, engine, bad):
        with pytest.raises(
            ValueError, match=rf"\['{bad}'\]; allowed: .*'batch_size'"
        ):
            build_spec(self._payload(engine=engine))

    @pytest.mark.parametrize(
        "engine, message",
        [
            ({"kind": "EI", "acquisition": "bogus"}, "unknown acquisition"),
            ({"kind": "This work", "batch_size": 0}, "batch_size must be >= 1"),
        ],
    )
    def test_bad_engine_values_rejected_at_load(self, engine, message):
        with pytest.raises(ValueError, match=message):
            build_spec(self._payload(engine=engine))

    def test_cli_reports_rejected_job_file_as_usage_error(self, tmp_path, capsys):
        good = tmp_path / "a.json"
        good.write_text(json.dumps(self._payload(name="a")), encoding="utf-8")
        bad = tmp_path / "b.json"
        bad.write_text(
            json.dumps(
                self._payload(
                    name="b", engine={"kind": "This work", "batch_size": 0}
                )
            ),
            encoding="utf-8",
        )
        runs_dir = tmp_path / "runs"
        assert serve_main([str(good), str(bad), "--runs-dir", str(runs_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert f"{bad}: batch_size must be >= 1" in err
        assert not runs_dir.exists()  # no campaign ran, the good one included

    def test_every_engine_parameter_is_a_job_key(self):
        engine = {
            "kind": "This work",
            "batch_size": 2,
            "embedding_dim": 2,
            "global_budget": 50,
            "local_budget": 20,
            "ard": True,  # the paper config's kernel is isotropic
        }
        run = {"n_init": 4, "n_batches": 1}
        spec = build_spec(self._payload(engine=engine, run=run))
        solver = spec.make_engine()
        assert (solver.global_budget, solver.local_budget) == (50, 20)
        assert solver.ard is True
        result = run_campaign_spec(spec)
        assert result.run.n_evaluations == 4 + 2
        assert result.run.acquisition_evaluations <= 2 * (50 + 20)

    def test_load_jobs_directory_sorted(self, tmp_path):
        for name in ("b.json", "a.json"):
            (tmp_path / name).write_text(
                json.dumps(self._payload(name=name.split(".")[0])),
                encoding="utf-8",
            )
        specs = load_jobs([tmp_path])
        assert [s.name for s in specs] == ["a", "b"]

    @pytest.mark.parametrize(
        "over",
        [
            {"faults": {"bogus": 1}},
            {"surrogate": 42},
            {"run": {"n_init": "six"}},
            {"engine": {"kind": "This work", "embedding_dim": 0}},
        ],
    )
    def test_load_jobs_rejects_a_bad_value_naming_the_file(self, tmp_path, over):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(self._payload(**over)), encoding="utf-8")
        with pytest.raises(ValueError, match="job.json: "):
            load_jobs([job])

    def test_eval_delay_wraps_objective(self):
        spec = build_spec(self._payload(eval_delay_seconds=0.01))
        assert isinstance(spec.objective, DelayObjective)

    def test_job_runs_its_table_cell_bitwise(self):
        overrides = {
            "batch_size": 2,
            "embedding_dim": 3,
            "n_restarts": 1,
            "global_budget": 30,
            "local_budget": 10,
        }
        job = build_spec(
            self._payload(engine={"kind": "This work", **overrides})
        )
        cell = method_campaign(
            "This work",
            UVLOTestbench(),
            "delta_vthl",
            uvlo_config(seed=5),
            **overrides,
        )
        a, b = run_campaign_spec(job).run, run_campaign_spec(cell).run
        assert a.n_evaluations == 5 + 5 * 2  # the paper config's D_0, batches
        assert a.X.tobytes() == b.X.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_sss_job_loads_and_runs(self):
        spec = build_spec(
            self._payload(engine={"kind": "SSS", "samples_per_scale": 2})
        )
        result = run_campaign_spec(spec).run
        assert result.method == "SSS"
        assert result.n_evaluations == 2 * len(uvlo_config().sss_scales)

    @pytest.mark.parametrize(
        "over, message",
        [
            (
                {"engine": {"kind": "rembo"}},
                r"engine.kind must be one of \['MC', 'SSS', 'EI', 'PI', 'LCB', "
                r"'pBO', 'This work'\], got 'rembo'",
            ),
            (
                {"run": {"threshold": "auto"}},
                r"unknown run keys: \['threshold'\]; "
                r"allowed: \['budget', 'n_batches', 'n_init'\]",
            ),
            (
                {"engine": {"kind": "MC", "seed": 3}},  # the job's seed is one
                r"unknown engine keys for 'MC': \['seed'\]; allowed: \[",
            ),
            (
                # a fixed budget always runs to the end
                {"engine": {"kind": "This work", "stop_on_failure": True}},
                r"unknown engine keys for 'This work': \['stop_on_failure'\]; "
                r"allowed: \[",
            ),
        ],
        ids=["old-kind", "run-threshold", "engine-seed", "stop-on-failure"],
    )
    def test_removed_job_choices_rejected_naming_the_allowed(self, over, message):
        with pytest.raises(ValueError, match=message):
            build_spec(self._payload(**over))

    @pytest.mark.parametrize("priority", [2.7, True, "3"])
    def test_non_int_priority_rejected_at_load(self, tmp_path, priority):
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(self._payload(priority=priority)), encoding="utf-8"
        )
        with pytest.raises(ValueError, match="job.json: priority must be an int"):
            load_jobs([job])

    def test_missing_measure_is_a_usage_error(self, tmp_path, capsys):
        payload = self._payload(testbench="ldo")
        del payload["measure"]  # the default, delta_vthl, is the UVLO's
        job = tmp_path / "job.json"
        job.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(
            ValueError,
            match=r"job.json: testbench 'ldo' has no measure 'delta_vthl'; "
            r"options: \['load_regulation', 'quiescent_current', 'undershoot'\]",
        ):
            load_jobs([job])
        runs_dir = tmp_path / "runs"
        assert serve_main([str(job), "--runs-dir", str(runs_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert "has no measure 'delta_vthl'" in err
        assert not runs_dir.exists()


# -- the scheduler ------------------------------------------------------------


def _mc_spec(name: str, seed: int, n: int = 12, priority: int = 0) -> CampaignSpec:
    """A tiny deterministic campaign; equal seeds → identical designs."""
    obj = bowl_objective(dim=3)
    return CampaignSpec(
        objective=obj,
        engine=lambda: MonteCarloSampler(n, seed=seed),
        run_spec=RunSpec(
            bounds=np.array([[-1.0, 1.0]] * 3), threshold=0.0
        ),
        seed=seed,
        name=name,
        priority=priority,
    )


def _final_run_observations(ledger_path: Path) -> int:
    (run,) = read_ledger(ledger_path).runs()[-1:]
    return sum(
        1 for e in run if e.get("event") in ("completed", "cache_hit")
    )


class TestSchedulerConcurrent:
    def test_four_campaigns_share_one_persistent_cache(self, tmp_path):
        runs = tmp_path / "runs"
        specs = [
            _mc_spec("c1", seed=1, priority=3),
            _mc_spec("c2", seed=1, priority=2),
            _mc_spec("c3", seed=2, priority=1),
            _mc_spec("c4", seed=2, priority=0),
        ]
        with CampaignScheduler(runs, max_concurrent=4) as scheduler:
            scheduler.submit_all(specs)
            result = scheduler.run()

        assert result.n_failed == 0
        assert len(result.outcomes) == 4
        # zero lost ledger events: every observation the engine consumed
        # is in its campaign's ledger
        for outcome in result.outcomes:
            assert outcome.ok
            n = _final_run_observations(outcome.ledger_path)
            assert n == outcome.result.run.n_evaluations == 12
        # campaigns sharing designs never both simulated a point
        assert result.duplicate_simulations == 0
        # exactly one simulation per unique design across the fleet
        total_completed = sum(
            read_ledger(o.ledger_path).n_completed for o in result.outcomes
        )
        assert total_completed == 24  # 2 unique seeds x 12 points
        assert result.cache_stats["size"] == 24
        assert result.cache_stats["hits"] >= 24
        # every campaign completed and recorded its queue wait
        assert result.n_completed == 4
        assert all(o.queue_wait_seconds > 0.0 for o in result.outcomes)

    def test_jobs_start_by_priority_then_submission(self, tmp_path):
        tracer = Tracer()
        with CampaignScheduler(
            tmp_path / "runs",
            max_concurrent=1,
            telemetry=Telemetry(tracer=tracer),
        ) as scheduler:
            scheduler.submit(_mc_spec("a", seed=1, priority=0))
            scheduler.submit(_mc_spec("b", seed=2, priority=2))
            scheduler.submit(_mc_spec("c", seed=3, priority=2))
            result = scheduler.run()
        # one worker runs the jobs one after another, in start order
        started = [
            span["attrs"]["campaign"]
            for span in tracer.finished
            if span["name"] == "scheduled_campaign"
        ]
        assert started == ["b", "c", "a"]
        assert [o.name for o in result.outcomes] == ["a", "b", "c"]
        assert result.n_completed == 3

    def test_duplicate_names_rejected(self, tmp_path):
        with CampaignScheduler(tmp_path / "runs") as scheduler:
            scheduler.submit(_mc_spec("same", seed=1))
            with pytest.raises(ValueError, match="already submitted"):
                scheduler.submit(_mc_spec("same", seed=2))

    def test_failing_campaign_does_not_sink_the_fleet(self, tmp_path):
        bad = CampaignSpec(
            objective=bowl_objective(dim=3),
            engine=lambda: (_ for _ in ()).throw(RuntimeError("boom")),
            name="bad",
        )
        with CampaignScheduler(tmp_path / "runs") as scheduler:
            scheduler.submit(bad)
            scheduler.submit(_mc_spec("good", seed=1))
            result = scheduler.run()
        by_name = {o.name: o for o in result.outcomes}
        assert not by_name["bad"].ok and "boom" in by_name["bad"].error
        assert by_name["good"].ok
        assert result.n_failed == 1

    def test_persistent_cache_survives_scheduler_restart(self, tmp_path):
        runs = tmp_path / "runs"
        with CampaignScheduler(runs) as scheduler:
            scheduler.submit(_mc_spec("first", seed=1))
            first = scheduler.run()
        assert first.cache_stats["misses"] == 12
        # a later scheduler over the same directory reuses the store:
        # an identical campaign is served entirely from disk
        with CampaignScheduler(runs) as scheduler:
            scheduler.submit(_mc_spec("second", seed=1))
            second = scheduler.run()
        assert second.n_failed == 0
        assert second.cache_stats["misses"] == 0
        assert read_ledger(runs / "second.jsonl").n_completed == 0


class TestSchedulerResume:
    def _run_fleet(self, runs: Path, resume: bool = False):
        specs = [
            _mc_spec("r1", seed=1),
            _mc_spec("r2", seed=1),
            _mc_spec("r3", seed=2),
            _mc_spec("r4", seed=3),
        ]
        with CampaignScheduler(runs, max_concurrent=2, resume=resume) as sched:
            sched.submit_all(specs)
            return sched.run()

    def test_truncated_ledgers_resume_bitwise(self, tmp_path):
        baseline = self._run_fleet(tmp_path / "baseline")
        assert baseline.n_failed == 0

        killed_dir = tmp_path / "killed"
        first = self._run_fleet(killed_dir)
        assert first.n_failed == 0
        # simulate a mid-flight SIGKILL: partial ledgers with torn final
        # lines, no completion certificates, cache lost entirely
        for name in ("r1", "r2", "r3", "r4"):
            truncate_mid_run(killed_dir / f"{name}.jsonl")
            (killed_dir / f"{name}.result.json").unlink()
        for shard in (killed_dir / "cache").glob("shard-*.jsonl"):
            shard.unlink()

        resumed = self._run_fleet(killed_dir, resume=True)
        assert resumed.n_failed == 0
        assert all(o.resumed for o in resumed.outcomes)
        assert resumed.duplicate_simulations == 0
        for name in ("r1", "r2", "r3", "r4"):
            base = json.loads(
                (tmp_path / "baseline" / f"{name}.result.json").read_text(
                    encoding="utf-8"
                )
            )
            res = json.loads(
                (killed_dir / f"{name}.result.json").read_text(
                    encoding="utf-8"
                )
            )
            assert base == res  # bitwise: floats round-trip via repr
            report = verify_replay(
                killed_dir / f"{name}.jsonl",
                bowl_objective(dim=3),
                mode="both",
            )
            assert report.zero_divergence, report.summary()

    def test_resume_skips_completed_campaigns(self, tmp_path):
        runs = tmp_path / "runs"
        self._run_fleet(runs)
        again = self._run_fleet(runs, resume=True)
        assert again.n_failed == 0
        assert all(o.already_complete for o in again.outcomes)

    def test_torn_shard_survives_repeated_resumes(self, tmp_path):
        runs = tmp_path / "runs"
        self._run_fleet(runs)
        # a kill inside put_many tears a shard's final line; the entry it
        # held survives in a ledger, so every resume re-stores it
        shard = sorted((runs / "cache").glob("shard-*.jsonl"))[0]
        with shard.open("r+b") as fh:
            fh.truncate(shard.stat().st_size - 12)
        for name in ("r1", "r3"):
            truncate_mid_run(runs / f"{name}.jsonl")
            (runs / f"{name}.result.json").unlink()
            resumed = self._run_fleet(runs, resume=True)
            assert resumed.n_failed == 0, resumed.summary()
        with ResultCache.open(runs / "cache") as cache:
            assert len(cache) == 3 * 12  # seeds 1, 2 and 3, 12 points each
        for line in shard.read_text(encoding="utf-8").splitlines():
            json.loads(line)

    def test_rerun_without_resume_over_a_torn_ledger(self, tmp_path):
        runs = tmp_path / "runs"
        self._run_fleet(runs)
        truncate_mid_run(runs / "r1.jsonl")
        again = self._run_fleet(runs)
        assert again.n_failed == 0
        assert again.duplicate_simulations == 0
        for name in ("r1", "r2", "r3", "r4"):
            replay = read_ledger(runs / f"{name}.jsonl")
            assert not replay.truncated
            assert len(replay.runs()) == 2


class TestSchedulerSigkill:
    """A real SIGKILL of the service process, then ``--resume``."""

    def _jobs(self, delay: float) -> dict:
        jobs = []
        for name, seed in (("k1", 1), ("k2", 2)):
            job = {
                "name": name,
                "seed": seed,
                "testbench": "uvlo",
                "measure": "delta_vthl",
                "engine": {"kind": "MC", "n_samples": 16},
            }
            if delay:
                job["eval_delay_seconds"] = delay
            jobs.append(job)
        return {"jobs": jobs}

    def _serve(self, jobs_file: Path, runs: Path, *extra: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                str(jobs_file),
                "--runs-dir",
                str(runs),
                "--workers",
                "2",
                *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )

    def test_sigkill_then_resume_is_bitwise(self, tmp_path):
        # baseline: same jobs without pacing — DelayObjective does not
        # change values, so X/y must come out identical
        baseline_jobs = tmp_path / "baseline.json"
        baseline_jobs.write_text(
            json.dumps(self._jobs(delay=0.0)), encoding="utf-8"
        )
        baseline_runs = tmp_path / "baseline"
        proc = self._serve(baseline_jobs, baseline_runs)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, out.decode()

        paced_jobs = tmp_path / "paced.json"
        paced_jobs.write_text(
            json.dumps(self._jobs(delay=0.08)), encoding="utf-8"
        )
        killed_runs = tmp_path / "killed"
        victim = self._serve(paced_jobs, killed_runs)
        try:
            # wait until at least one campaign has completed events on
            # disk, then kill the whole service without warning
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if victim.poll() is not None:
                    break  # finished before we could kill it — still valid
                ledgers = list(killed_runs.glob("k*.jsonl"))
                if any(
                    '"event":"completed"' in p.read_text(encoding="utf-8")
                    for p in ledgers
                ):
                    victim.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.05)
            # reap the service and release its stdout pipe
            victim.communicate(timeout=60)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.communicate(timeout=60)

        resumer = self._serve(paced_jobs, killed_runs, "--resume")
        out, _ = resumer.communicate(timeout=120)
        assert resumer.returncode == 0, out.decode()

        bench = UVLOTestbench()
        for name in ("k1", "k2"):
            base = json.loads(
                (baseline_runs / f"{name}.result.json").read_text(
                    encoding="utf-8"
                )
            )
            res = json.loads(
                (killed_runs / f"{name}.result.json").read_text(
                    encoding="utf-8"
                )
            )
            assert base == res
            report = verify_replay(
                killed_runs / f"{name}.jsonl",
                bench.objective("delta_vthl"),
                mode="warm",
            )
            assert report.zero_divergence, report.summary()


# -- shared RuntimePolicy plumbing -------------------------------------------


class TestSharedPolicy:
    def test_shared_accepts_existing_cache(self, tmp_path):
        with ResultCache.open(tmp_path / "c") as cache:
            policy = RuntimePolicy.shared(cache=cache)
            assert policy.cache is cache

    def test_shared_opens_cache_path(self, tmp_path):
        policy = RuntimePolicy.shared(cache_path=tmp_path / "c")
        try:
            assert policy.cache.persistent
        finally:
            policy.cache.close()

    def test_shared_rejects_both(self, tmp_path):
        with ResultCache.open(tmp_path / "c") as cache:
            with pytest.raises(ValueError, match="not both"):
                RuntimePolicy.shared(cache=cache, cache_path=tmp_path / "d")
