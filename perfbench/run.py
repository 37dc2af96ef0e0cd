"""End-to-end campaign benchmark with a per-layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uvlo_rembo --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's campaigns with telemetry off for about
``--seconds`` seconds and reports the end-to-end metrics; ``--trace 1``
runs a fixed set of rounds untraced, then traced (program spans on, layer
wrappers installed), and reports the per-layer metrics.  Both check every
campaign's outputs.  Human-readable detail goes to stderr; the last line
of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` count campaigns (the error rate is their ratio); a
failed check also makes the exit code nonzero.  Times are per campaign
unless named otherwise; per-layer figures are per campaign of the traced
pass.  ``--environment`` prints the interpreter, library and BLAS settings
the numbers were taken under.
"""

from __future__ import annotations

import os

# One BLAS thread: the service workload runs two campaign threads and the
# reference machine has two cores, so threads x BLAS threads <= nproc.  Set
# unconditionally so every commit is measured under the same setting.
BLAS_THREADS = "1"
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 3

IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.process_time(); "
    "import workloads; print(time.process_time() - t)"
)

END_TO_END = {
    "campaign_s": "s",
    "makespan_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "gp.fit_s": "s",
    "gp.fit_calls": "count",
    "gp.hyperopt_fevals": "count",
    "gp.ms_per_feval": "ms",
    "acquisition.opt_s": "s",
    "acquisition.fevals": "count",
    "acquisition.us_per_feval": "us",
    "circuits.sim_s": "s",
    "circuits.points": "count",
    "circuits.calls": "count",
    "circuits.ms_per_point": "ms",
    "runtime.broker.self_s": "s",
    "runtime.broker.batches": "count",
    "runtime.broker.retries": "count",
    "runtime.cache.claim_s": "s",
    "runtime.cache.put_s": "s",
    "runtime.cache.wait_s": "s",
    "runtime.cache.hits": "count",
    "runtime.cache.misses": "count",
    "runtime.cache.hit_ratio": "ratio",
    "runtime.cache.bytes": "B",
    "runtime.cache.open_s": "s",
    "runtime.ledger.appends": "count",
    "runtime.ledger.append_s": "s",
    "runtime.ledger.bytes": "B",
    "serve.queue_wait_s": "s",
    "serve.duplicate_simulations": "count",
    "bo.iteration_s": "s",
    "bo.iterations": "count",
    "bo.residual_s": "s",
    "bo.first_failure_sim": "count",
    "telemetry.overhead_frac": "ratio",
    "bench.varying_counts": "count",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def environment() -> dict[str, Any]:
    import platform

    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "scheduler_workers": 2,
    }


def import_seconds() -> float:
    """CPU time of importing the benchmarked modules afresh."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def setup_seconds(workload: Any, work: Path) -> float:
    """Median set-up CPU time, rescaled to the reference machine like a
    campaign's (see ``speed``) by probes taken between the set-ups, on the
    one CPU the set-ups and the import processes run on."""
    from speed import cpu_seconds, pin_one_cpu, probe, speed_factor

    cpus = pin_one_cpu()
    imports, setups, probes = [], [], [probe(600)]
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        probes.append(probe(600))
        start = cpu_seconds()
        workload.setup(work)
        setups.append(cpu_seconds() - start)
        probes.append(probe(600))
    if cpus is not None:
        os.sched_setaffinity(0, cpus)  # the service's workers need every CPU
    seconds = statistics.median(imports) + statistics.median(setups)
    speed = speed_factor(probes)
    log(f"setup: {seconds:.4f} CPU seconds, speed factor {speed:.4f}")
    return seconds * speed


def tally(rounds: list[Any]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for rnd in rounds:
        for c in rnd.campaigns:
            attempted += 1
            if c.errors:
                failed += 1
                problems += [f"{c.name}: {e}" for e in c.errors]
    return attempted, failed, problems


def run_untraced(workload: Any, seed: int, seconds: float, work: Path) -> dict:
    setup_s = setup_seconds(workload, work)
    workload.warm_up(work)
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round(seed, len(rounds), work))
        if len(rounds) == 1:
            # later rounds only add fragmentation to the peak, and how
            # many rounds fit depends on the machine's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls.append(time.perf_counter() - start - sum(walls))
        elapsed = sum(walls)
        typical = statistics.median(walls)
        # no round that would end well past the deadline
        if (
            len(rounds) >= workload.min_rounds
            and elapsed + 0.75 * typical >= seconds
        ):
            break
    # Every figure is a median over rounds, of times rescaled to the
    # reference machine (see speed.py).  A round's campaign time is the
    # mean of its campaigns: the service's rounds hold two cache-writing
    # and two cache-served campaigns, whose median would fall between the
    # two kinds.
    times = [
        statistics.fmean(c.seconds * c.speed for c in r.campaigns) for r in rounds
    ]
    spans = [r.seconds * r.speed for r in rounds]
    points = [sum(c.points for c in r.campaigns) for r in rounds]
    metrics = {
        "campaign_s": statistics.median(times),
        "makespan_s": statistics.median(spans),
        "points_per_s": statistics.median(p / s for p, s in zip(points, spans)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    log(
        f"{workload.name}: {len(rounds)} rounds of {workload.round_size} "
        "campaigns; per round, timed seconds x speed factor (campaigns' wall "
        "seconds): "
        + " ".join(
            f"{r.seconds:.3f}x{r.speed:.3f}({sum(c.wall for c in r.campaigns):.3f})"
            for r in rounds
        )
    )
    return {"rounds": rounds, "metrics": metrics}


def traced_round(workload: Any, seed: int, index: int, work: Path) -> tuple:
    """One traced round and the raw layer totals it produced."""
    from probes import LayerProbe, span_totals
    from repro.telemetry import Telemetry
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.trace import Tracer

    probe = LayerProbe()
    telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
    with probe.installed():
        rnd = workload.run_round(
            seed, index, work, telemetry=telemetry, wrap=probe.objective
        )
    totals: dict[str, float] = dict(probe.totals)
    totals.update(span_totals(telemetry.tracer.finished))
    counters = telemetry.snapshot()["counters"]
    for name in ("cache.hits", "cache.misses", "evaluations.retries"):
        totals["counter." + name] = float(counters.get(name, 0))
    totals.update(rnd.extra)
    return rnd, totals


def layer_metrics(rounds: list[Any], totals: dict[str, float]) -> dict[str, float]:
    """Per-campaign layer figures from summed raw totals."""
    t = totals.get
    campaigns = [c for r in rounds for c in r.campaigns]
    n = len(campaigns)

    def per(key: str) -> float:
        return t(key, 0.0) / n

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    hits, misses = t("counter.cache.hits", 0.0), t("counter.cache.misses", 0.0)
    campaign_total = sum(c.wall for c in campaigns)  # spans are wall time
    covered = t("gp_fit_s", 0.0) + t("acq_opt_s", 0.0) + t("broker.batch_s", 0.0)
    return {
        "gp.fit_s": per("gp_fit_s"),
        "gp.fit_calls": per("gp_fit_n"),
        "gp.hyperopt_fevals": per("gp_fit_fevals"),
        "gp.ms_per_feval": ratio(t("gp_fit_s", 0.0), t("gp_fit_fevals", 0.0), 1e3),
        "acquisition.opt_s": per("acq_opt_s"),
        "acquisition.fevals": per("acq_opt_fevals"),
        "acquisition.us_per_feval": ratio(
            t("acq_opt_s", 0.0), t("acq_opt_fevals", 0.0), 1e6
        ),
        "circuits.sim_s": per("circuits.sim_s"),
        "circuits.points": per("circuits.sim_points"),
        "circuits.calls": per("circuits.sim_calls"),
        "circuits.ms_per_point": ratio(
            t("circuits.sim_s", 0.0), t("circuits.sim_points", 0.0), 1e3
        ),
        "runtime.broker.self_s": (t("broker.batch_s", 0.0) - t("broker.inner_s", 0.0))
        / n,
        "runtime.broker.batches": per("broker.batch_calls"),
        "runtime.broker.retries": per("counter.evaluations.retries"),
        "runtime.cache.claim_s": per("cache.claim_s"),
        "runtime.cache.put_s": per("cache.put_s"),
        "runtime.cache.wait_s": per("cache.wait_s"),
        "runtime.cache.hits": hits / n,
        "runtime.cache.misses": misses / n,
        "runtime.cache.hit_ratio": ratio(hits, hits + misses),
        "runtime.cache.bytes": per("cache.bytes"),
        "runtime.cache.open_s": t("cache.open_s", 0.0) / len(rounds),
        "runtime.ledger.appends": per("ledger.append_calls"),
        "runtime.ledger.append_s": per("ledger.append_s"),
        "runtime.ledger.bytes": per("ledger.bytes"),
        "serve.queue_wait_s": per("serve.queue_wait_s"),
        "serve.duplicate_simulations": t("serve.duplicate_simulations", 0.0),
        "bo.iteration_s": per("iteration_s"),
        "bo.iterations": per("iteration_n"),
        "bo.residual_s": (campaign_total - covered) / n,
        "bo.first_failure_sim": statistics.median(c.first_failure for c in campaigns),
    }


def run_traced(workload: Any, seed: int, work: Path) -> dict:
    workload.setup(work)
    workload.warm_up(work)
    indices = range(workload.trace_rounds)
    untraced = [workload.run_round(seed, i, work) for i in indices]
    # the layer figures come from a pass without the speed sampler, whose
    # probes would land inside the spans
    workload.sampled = False
    traced, raws = [], []
    for i in indices:
        rnd, raw = traced_round(workload, seed, i, work)
        traced.append(rnd)
        raws.append(raw)
    workload.sampled = True
    totals: dict[str, float] = {}
    for raw in raws:
        for key, value in raw.items():
            totals[key] = totals.get(key, 0.0) + value
    metrics = layer_metrics(traced, totals)

    problems = []
    for plain, instrumented in zip(untraced, traced):
        for a, b in zip(plain.campaigns, instrumented.campaigns):
            if a.digest != b.digest:
                problems.append(f"{a.name}: traced X/y differ from untraced")

    # The same round traced again must give the same counts.  It runs
    # sampled, like the untraced pass, so the two rescaled times compare:
    # their ratio is the tracing overhead.
    first, raw = traced_round(workload, seed, 0, work)
    metrics["telemetry.overhead_frac"] = (
        first.seconds * first.speed / (untraced[0].seconds * untraced[0].speed) - 1.0
    )
    for a, b in zip(traced[0].campaigns, first.campaigns):
        if a.digest != b.digest:
            problems.append(f"{a.name}: X/y differ between identical runs")
    again = layer_metrics([first], raw)
    once = layer_metrics(traced[:1], raws[0])
    varying = [
        name
        for name, unit in PER_LAYER.items()
        if unit == "count" and name in again and again[name] != once[name]
    ]
    for name in varying:
        log(f"count {name} varies between identical traced rounds: "
            f"{once[name]} vs {again[name]}")
    metrics["bench.varying_counts"] = float(len(varying))
    return {
        "rounds": untraced + traced + [first],
        "metrics": metrics,
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--environment", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: the program's sources are missing ({SRC / 'repro'})")
        return 2
    sys.path.insert(0, str(SRC))
    if args.environment:
        print(json.dumps(environment(), indent=2))
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"error: --workload must be one of {sorted(WORKLOADS)}")
        return 2
    log("environment: " + json.dumps(environment()))
    workload = WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            outcome = run_traced(workload, args.seed, work)
            units = PER_LAYER
        else:
            outcome = run_untraced(workload, args.seed, args.seconds, work)
            units = END_TO_END
    except Exception:  # noqa: BLE001 - any crash is a failed run
        log(traceback.format_exc())
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted, failed, problems = tally(outcome["rounds"])
    problems += outcome.get("problems", [])
    for problem in problems:
        log("check failed: " + problem)
    metrics = outcome["metrics"]
    for name, unit in units.items():
        log(f"  {name:32s} {metrics[name]:>14.6g} {unit}")
    log(f"  error_rate {failed}/{attempted}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
