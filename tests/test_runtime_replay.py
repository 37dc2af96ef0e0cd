"""Replay-verifier tests: the dynamic proof behind the NL7xx static rules.

The acceptance scenario: a fault-injected UVLO campaign is killed
mid-run, resumed append-in-place from its ledger, and the combined ledger
then replays with zero divergence through the *clean* objective — warm
(the values a resume's preload serves) and cold (full re-execution,
bitwise float comparison).  Plus the failure modes: value tampering and
an edited point are caught, wrong-objective replay is an operator error,
and the torn line a kill leaves behind is healed so the appended ledger
stays readable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bo.engine import RunSpec
from repro.bo.rembo import RemboBO
from repro.circuits.behavioral.uvlo import UVLOTestbench
from repro.runtime import (
    BrokerConfig,
    EvaluationBroker,
    FaultInjectingObjective,
    FaultPlan,
    FunctionObjective,
    ResultCache,
    RunLedger,
    RuntimePolicy,
    point_digest,
    read_ledger,
    truncate_mid_run,
    verify_replay,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def small_engine(seed=11):
    return RemboBO(
        batch_size=4,
        embedding_dim=3,
        tune_every=1,
        n_restarts=1,
        seed=seed,
    )


def clean_objective():
    return UVLOTestbench().objective("delta_vthl")


def faulty_objective():
    """A fresh wrapper: a new process starts with empty attempt counters."""
    return FaultInjectingObjective(
        clean_objective(),
        FaultPlan(failure_rate=0.3, nan_fraction=0.4, seed=5),
    )


def run_campaign(objective, runtime, seed=11):
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


RETRY = BrokerConfig(max_retries=3, backoff_seconds=0.0)


def resumed_policy(ledger_path):
    """Preload a fresh cache from the ledger; append to the same file."""
    cache = ResultCache.in_memory()
    cache.preload(read_ledger(ledger_path).completed)
    return RuntimePolicy(config=RETRY, cache=cache, ledger=RunLedger(ledger_path))


def rewrite_first_completed(path, edit):
    """Apply ``edit`` to the ledger's first completed event, in place."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        event = json.loads(line)
        if event.get("event") == "completed":
            edit(event)
            lines[i] = json.dumps(event)
            break
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestKillResumeReplay:
    def test_resumed_fault_injected_ledger_replays_clean(self, tmp_path):
        ledger_path = tmp_path / "campaign.jsonl"

        # 1. fault-injected campaign, killed mid-run
        policy = RuntimePolicy(config=RETRY, ledger=RunLedger(ledger_path))
        run_campaign(faulty_objective(), policy)
        policy.ledger.close()
        n_total = read_ledger(ledger_path).n_completed
        n_kept = truncate_mid_run(ledger_path)
        assert 0 < n_kept < n_total

        # 2. resume append-in-place (same file), fresh fault wrapper
        killed = read_ledger(ledger_path)
        assert killed.truncated and killed.n_completed == n_kept
        policy = resumed_policy(ledger_path)
        run_campaign(faulty_objective(), policy)
        policy.ledger.close()

        # 3. the combined ledger replays with zero divergence through the
        # clean objective: injected faults were transient, retried, and
        # never recorded
        clean = UVLOTestbench().objective("delta_vthl")
        report = verify_replay(ledger_path, clean, mode="both", config=RETRY)
        assert report.zero_divergence, report.summary()
        assert report.n_completed == n_total
        assert report.n_checked > 0
        assert report.divergences == []

    def test_warm_and_cold_modes_run_independently(self, tmp_path):
        ledger_path = tmp_path / "campaign.jsonl"
        policy = RuntimePolicy(config=RETRY, ledger=RunLedger(ledger_path))
        run_campaign(clean_objective(), policy)
        policy.ledger.close()
        clean = UVLOTestbench().objective("delta_vthl")
        warm = verify_replay(ledger_path, clean, mode="warm")
        cold = verify_replay(ledger_path, clean, mode="cold", config=RETRY)
        assert warm.zero_divergence and cold.zero_divergence
        assert warm.n_completed == cold.n_completed
        # cold re-executes, so it checks at least the unique points twice
        # over (digest stability + value); both modes checked something
        assert warm.n_checked > 0 and cold.n_checked > 0

    def test_tampered_value_is_caught(self, tmp_path):
        ledger_path = tmp_path / "campaign.jsonl"
        policy = RuntimePolicy(config=RETRY, ledger=RunLedger(ledger_path))
        run_campaign(clean_objective(), policy)
        policy.ledger.close()

        def shift_value(event):
            event["y"] += 1.0

        rewrite_first_completed(ledger_path, shift_value)

        clean = UVLOTestbench().objective("delta_vthl")
        report = verify_replay(ledger_path, clean, mode="both", config=RETRY)
        assert not report.zero_divergence
        kinds = {d.kind for d in report.divergences}
        assert "value" in kinds
        assert report.first_divergence is not None
        assert "value" in report.first_divergence.render()

    def test_wrong_objective_is_operator_error(self, tmp_path):
        ledger_path = tmp_path / "campaign.jsonl"
        policy = RuntimePolicy(config=RETRY, ledger=RunLedger(ledger_path))
        run_campaign(clean_objective(), policy)
        policy.ledger.close()
        dim = UVLOTestbench().dim
        other = FunctionObjective(
            lambda x: 0.0, dim=dim, cache_key="some-other-campaign"
        )
        with pytest.raises(ValueError, match="cache_key"):
            verify_replay(ledger_path, other)


BOWL_KEY = "replay-bowl"


def bowl(x):
    return float(np.sum(x**2))


def nan_past_08():
    """The bowl under its own key, except that points with x0 > 0.8 no
    longer simulate (``--objective`` factory for the CLI test)."""
    return FunctionObjective(
        lambda x: float("nan") if x[0] > 0.8 else bowl(x),
        dim=2,
        cache_key=BOWL_KEY,
    )


def write_bowl_ledger(path):
    """Three completed points; the one with id 1 has x0 = 0.9."""
    ledger = RunLedger(path)
    EvaluationBroker(
        FunctionObjective(bowl, dim=2, cache_key=BOWL_KEY), ledger=ledger
    ).evaluate_batch(np.array([[0.1, 0.2], [0.9, 0.0], [-0.3, 0.4]]))
    ledger.close()


class TestColdReplayOfUnsimulatablePoint:
    def test_point_that_no_longer_simulates_is_a_divergence(self, tmp_path):
        ledger_path = tmp_path / "bowl.jsonl"
        write_bowl_ledger(ledger_path)
        report = verify_replay(
            ledger_path,
            nan_past_08(),
            mode="cold",
            config=BrokerConfig(max_retries=0),
        )
        assert report.n_completed == 3
        # the other two records replay clean
        [divergence] = report.divergences
        assert (divergence.record_id, divergence.mode, divergence.kind) == (
            1,
            "cold",
            "missing",
        )
        assert "non-finite value nan" in divergence.detail


class TestLedgerEdits:
    def test_edited_point_is_a_digest_and_a_cold_divergence(self, tmp_path):
        ledger_path = tmp_path / "bowl.jsonl"
        write_bowl_ledger(ledger_path)

        def move_point(event):
            event["x"][0] += 0.05

        rewrite_first_completed(ledger_path, move_point)
        report = verify_replay(
            ledger_path,
            FunctionObjective(bowl, dim=2, cache_key=BOWL_KEY),
            mode="both",
        )
        # warm looks the recorded digest up, which still serves the
        # recorded value: the digest pass alone reports the moved point
        assert [(d.record_id, d.mode, d.kind) for d in report.divergences] == [
            (0, "cold", "value"),
            (0, "digest", "digest"),
        ]

    def test_earlier_of_two_values_for_one_digest_is_a_warm_divergence(
        self, tmp_path
    ):
        ledger_path = tmp_path / "bowl.jsonl"
        x = [0.1, 0.2]
        digest = point_digest(BOWL_KEY, x)
        with RunLedger(ledger_path) as ledger:
            ledger.append({"event": "campaign", "dim": 2, "cache_key": BOWL_KEY})
            for record_id, y in enumerate([9.0, bowl(np.array(x))]):
                ledger.append(
                    {
                        "event": "completed",
                        "id": record_id,
                        "digest": digest,
                        "x": x,
                        "y": y,
                    }
                )
        report = verify_replay(
            ledger_path,
            FunctionObjective(bowl, dim=2, cache_key=BOWL_KEY),
            mode="warm",
        )
        # a resume preloads the later line's value for the digest
        [divergence] = report.divergences
        assert (divergence.record_id, divergence.mode, divergence.kind) == (
            0,
            "warm",
            "value",
        )
        assert (divergence.recorded_y, divergence.replayed_y) == (
            9.0,
            bowl(np.array(x)),
        )


class TestTornTailHealing:
    def test_resume_heals_torn_line_in_place(self, tmp_path):
        ledger_path = tmp_path / "campaign.jsonl"
        policy = RuntimePolicy(config=RETRY, ledger=RunLedger(ledger_path))
        run_campaign(clean_objective(), policy)
        policy.ledger.close()
        n_total = read_ledger(ledger_path).n_completed
        truncate_mid_run(ledger_path)
        raw = ledger_path.read_text(encoding="utf-8")
        assert not raw.splitlines()[-1].startswith("{\"event\": ")

        assert read_ledger(ledger_path).truncated
        # the resumed run's first append cuts the fragment, so the
        # appended ledger reads back whole: every line parses
        policy = resumed_policy(ledger_path)
        run_campaign(clean_objective(), policy)
        policy.ledger.close()
        for line in ledger_path.read_text(encoding="utf-8").splitlines():
            json.loads(line)
        final = read_ledger(ledger_path)
        assert not final.truncated
        assert final.n_completed == n_total


class TestReplayCli:
    def _run(self, *argv: str):
        return subprocess.run(
            [sys.executable, "-m", "repro.runtime.replay", *argv],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": os.pathsep.join([str(SRC), str(SRC.parent)]),
                "PATH": "/usr/bin:/bin",
            },
        )

    def test_ledger_argument_verifies_uvlo_run(self, tmp_path):
        ledger_path = tmp_path / "campaign.jsonl"
        policy = RuntimePolicy(config=RETRY, ledger=RunLedger(ledger_path))
        run_campaign(clean_objective(), policy)
        policy.ledger.close()
        proc = self._run(
            str(ledger_path), "--testbench", "uvlo",
            "--measure", "delta_vthl", "--mode", "warm",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_unsimulatable_point_exits_one_with_a_report(self, tmp_path):
        ledger_path = tmp_path / "bowl.jsonl"
        write_bowl_ledger(ledger_path)
        proc = self._run(
            str(ledger_path), "--objective",
            "tests.test_runtime_replay:nan_past_08",
            "--mode", "cold", "--max-retries", "0",
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "1 divergence(s)" in proc.stdout
        assert "record id=1 [cold/missing]" in proc.stdout

    def test_usage_error_without_ledger(self):
        proc = self._run()
        assert proc.returncode == 2

    def test_negative_max_retries_is_a_usage_error(self, tmp_path):
        # exit 1 means divergence, so a bad flag must not reach the replay
        ledger_path = tmp_path / "bowl.jsonl"
        write_bowl_ledger(ledger_path)
        proc = self._run(
            str(ledger_path), "--testbench", "uvlo", "--max-retries", "-1"
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == (
            "python -m repro.runtime.replay: error: --max-retries must be "
            ">= 0, got -1\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "pass --testbench or --objective"),
            (
                ("--objective", "foo"),
                "--objective expects module:attr, got 'foo'",
            ),
            (
                ("--objective", "nosuchmod:attr"),
                "--objective 'nosuchmod:attr': No module named 'nosuchmod'",
            ),
            (
                ("--objective", "repro.runtime:nosuchattr"),
                "--objective 'repro.runtime:nosuchattr': module "
                "'repro.runtime' has no attribute 'nosuchattr'",
            ),
            (
                ("--objective", "repro.runtime.cache:DEFAULT_DECIMALS"),
                "--objective 'repro.runtime.cache:DEFAULT_DECIMALS' names a "
                "value of type int, not an Objective",
            ),
        ],
        ids=[
            "no-objective",
            "objective-without-attr",
            "no-such-module",
            "no-such-attribute",
            "not-an-objective",
        ],
    )
    def test_objective_choice_errors_are_usage_errors(
        self, tmp_path, argv, message
    ):
        ledger_path = tmp_path / "bowl.jsonl"
        write_bowl_ledger(ledger_path)
        proc = self._run(str(ledger_path), *argv)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == f"python -m repro.runtime.replay: error: {message}\n"
