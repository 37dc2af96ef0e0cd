"""``python -m repro.serve`` — the campaign service CLI.

Submit declarative job files (see :mod:`repro.serve.jobs`) to a
:class:`~repro.serve.scheduler.CampaignScheduler`::

    python -m repro.serve jobs.json --workers 4 --runs-dir runs/serve
    python -m repro.serve jobs/ --resume          # restart after a kill
    python -m repro.serve --selftest              # kill/resume smoke

``--resume`` restarts an interrupted service: campaigns whose result
file exists are skipped, campaigns with a partial ledger are resumed
bitwise, everything else runs fresh — all against the same persistent
cache directory, which keeps every result it stores or loads, so nothing
already simulated is ever simulated again.

Every job is validated before any campaign starts; a rejected job file,
a ``--workers`` below 1 or a cache store written with another digest
rounding or format version is a usage error, reported as one line on
stderr with exit status 2 before anything is created.

``--selftest`` is the one-command CI smoke for the whole kill/resume
contract: run two tiny fault-injected campaigns (transient errors and
NaNs, retried by the broker) to completion as a baseline, run them
again in a second directory, simulate a mid-flight kill (truncate every
ledger to a torn final line, drop the result files and the cache),
restart with resume, and require (a) bitwise-identical result files,
(b) zero replay divergence per ledger through the clean objective
(``verify_replay``), and (c) zero duplicate simulations across the
campaigns.  Exit status: 0 clean, 1 divergent/failed, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Sequence

from repro.runtime.broker import BrokerConfig
from repro.runtime.cache import ResultCache
from repro.runtime.replay import truncate_mid_run, verify_replay
from repro.serve.jobs import load_jobs
from repro.serve.scheduler import CampaignScheduler, SchedulerResult
from repro.telemetry.config import TelemetryConfig

#: The two-campaign job set the selftest schedules.  Same seed and
#: measure on purpose: the campaigns propose identical designs, so the
#: shared single-flight cache must absorb every overlap (zero duplicate
#: simulations) while both still complete with full ledgers.  Injected
#: faults are transient, so the broker's retries recover the fault-free
#: values and the ledgers replay clean through the clean objective.
_SELFTEST_JOBS = [
    {
        "name": "selftest-a",
        "priority": 1,
        "seed": 11,
        "testbench": "uvlo",
        "measure": "delta_vthl",
        "engine": {
            "kind": "This work",
            "batch_size": 4,
            "embedding_dim": 3,
            "n_restarts": 1,
        },
        "run": {"n_init": 6, "n_batches": 2},
        "faults": {"failure_rate": 0.3, "nan_fraction": 0.4, "seed": 5},
    },
    {
        "name": "selftest-b",
        "priority": 0,
        "seed": 11,
        "testbench": "uvlo",
        "measure": "delta_vthl",
        "engine": {
            "kind": "This work",
            "batch_size": 4,
            "embedding_dim": 3,
            "n_restarts": 1,
        },
        "run": {"n_init": 6, "n_batches": 2},
        "faults": {"failure_rate": 0.3, "nan_fraction": 0.4, "seed": 5},
    },
]


def _run_jobs(runs_dir: Path, workers: int, resume: bool) -> SchedulerResult:
    from repro.serve.jobs import build_spec

    with CampaignScheduler(
        runs_dir,
        max_concurrent=workers,
        broker_config=BrokerConfig(backoff_seconds=0.0),
        resume=resume,
    ) as scheduler:
        scheduler.submit_all([build_spec(job) for job in _SELFTEST_JOBS])
        return scheduler.run()


def run_serve_selftest(workdir: str | Path | None = None) -> int:
    """Baseline run → simulated kill → resumed run → bitwise comparison."""
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="serve-selftest-") as tmp:
            return _selftest_in(Path(tmp))
    return _selftest_in(Path(workdir))


def _selftest_in(workdir: Path) -> int:
    from repro.circuits.behavioral.uvlo import UVLOTestbench

    baseline_dir = workdir / "baseline"
    killed_dir = workdir / "killed"
    failures: list[str] = []

    baseline = _run_jobs(baseline_dir, workers=2, resume=False)
    if baseline.n_failed:
        failures.append(f"baseline run failed:\n{baseline.summary()}")
    if baseline.duplicate_simulations != 0:
        failures.append(
            f"baseline ran {baseline.duplicate_simulations} duplicate "
            "simulations; the shared cache should have absorbed them"
        )

    # full run in a second directory, then simulate a mid-flight kill:
    # truncate every ledger, drop the completion certificates and the
    # persistent cache so the tail genuinely re-simulates
    first = _run_jobs(killed_dir, workers=2, resume=False)
    if first.n_failed:
        failures.append(f"pre-kill run failed:\n{first.summary()}")
    for job in _SELFTEST_JOBS:
        name = str(job["name"])
        truncate_mid_run(killed_dir / f"{name}.jsonl")
        (killed_dir / f"{name}.result.json").unlink()
    shutil.rmtree(killed_dir / "cache")

    resumed = _run_jobs(killed_dir, workers=2, resume=True)
    if resumed.n_failed:
        failures.append(f"resumed run failed:\n{resumed.summary()}")
    for outcome in resumed.outcomes:
        if not outcome.resumed:
            failures.append(f"{outcome.name}: expected a ledger resume")

    bench = UVLOTestbench()
    for job in _SELFTEST_JOBS:
        name = str(job["name"])
        base = json.loads(
            (baseline_dir / f"{name}.result.json").read_text(encoding="utf-8")
        )
        res = json.loads(
            (killed_dir / f"{name}.result.json").read_text(encoding="utf-8")
        )
        if base != res:
            failures.append(
                f"{name}: resumed result diverges from the baseline run"
            )
        report = verify_replay(
            killed_dir / f"{name}.jsonl",
            bench.objective("delta_vthl"),
            mode="both",
            config=BrokerConfig(backoff_seconds=0.0),
        )
        if not report.zero_divergence:
            failures.append(f"{name}: replay divergence\n{report.summary()}")

    if failures:
        print("serve selftest FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "serve selftest: kill + --resume reproduced "
        f"{len(_SELFTEST_JOBS)} fault-injected campaigns bitwise, zero "
        "replay divergence, zero duplicate simulations"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Run queued campaign jobs concurrently over one shared "
            "persistent result cache, with per-campaign ledger "
            "checkpoints and bitwise kill/resume."
        ),
    )
    parser.add_argument(
        "jobs",
        nargs="*",
        help="job files (.json/.toml) or directories of job files",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="campaigns run concurrently (default: 2)",
    )
    parser.add_argument(
        "--runs-dir",
        default="runs/serve",
        help="ledger/result/cache directory (default: runs/serve)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        help="persistent cache directory (default: RUNS_DIR/cache)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip completed campaigns, resume interrupted ones bitwise",
    )
    parser.add_argument(
        "--trace",
        default=None,
        help="write one shared telemetry trace for the whole service",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the kill/resume service smoke end to end (no jobs needed)",
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="directory for --selftest artifacts (default: temporary)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        # a usage error, like a rejected job file: nothing is created
        print(
            f"{parser.prog}: error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2

    if args.selftest:
        return run_serve_selftest(workdir=args.workdir)
    if not args.jobs:
        parser.error("pass at least one job file/directory (or --selftest)")

    try:
        specs = load_jobs(args.jobs)
    except (OSError, ValueError) as exc:
        # a rejected job file is a usage error: no campaign runs
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    runs_dir = Path(args.runs_dir)
    cache_dir = Path(args.cache) if args.cache else runs_dir / "cache"
    try:
        cache = ResultCache.open(cache_dir)
    except ValueError as exc:
        # a store with another rounding or format: no campaign runs
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    with cache:
        runs_dir.mkdir(parents=True, exist_ok=True)
        telemetry = TelemetryConfig(trace_path=args.trace) if args.trace else None
        with CampaignScheduler(
            runs_dir,
            cache=cache,
            max_concurrent=args.workers,
            telemetry=telemetry,
            resume=args.resume,
        ) as scheduler:
            scheduler.submit_all(specs)
            result = scheduler.run()
    print(result.summary())
    return 0 if result.n_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
