"""The campaign workloads, driven through the program's public API.

``BENCHMARK.json`` gates three of them (``uvlo_rembo``, ``mna_uvlo`` and
``serve_mc_shared``).  ``sparse_long`` runs by name only: its campaigns'
cost depends on their initial points, and took 4.6-7.7 s rescaled between
three seeds, so the median of the three campaigns a run has time for
cannot be steady from seed to seed.

Every workload is a closed loop: a campaign's next batch is proposed only
after the previous batch resolved, and a round's campaigns run one after
another (``serve_mc_shared`` runs its four campaigns two at a time through
the scheduler).  All inputs derive from the run seed; the program only
sees the generated inputs.

A round returns its time and speed factor, and per campaign: its time
and speed factor, its wall time, design points resolved, an X/y digest,
and the output checks that failed.  Times are CPU seconds (of the
campaign's thread, or of the service's round split over its campaigns),
and the speed factor rescales them to the reference machine (see
``speed``).
"""

from __future__ import annotations

import functools
import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.stats import qmc

from repro.bo import RemboBO, RunSpec
from repro.campaign import Campaign, CampaignSpec
from repro.circuits.behavioral.uvlo import UVLOTestbench
from repro.circuits.mna import uvlo_demo_objective
from repro.experiments.config import uvlo_config
from repro.experiments.methods import build_engine, method_spec
from repro.runtime.cache import DEFAULT_DECIMALS, ResultCache, batch_digests
from repro.runtime.ledger import read_ledger
from repro.runtime.objective import FunctionObjective, Objective
from repro.serve import CampaignScheduler
from repro.synthetic.functions import RareFailureFunction
from repro.telemetry import Telemetry
from repro.utils.validation import unit_cube_bounds
from speed import (
    SpeedSampler,
    cpu_seconds,
    probe,
    process_cpu_seconds,
    speed_factor,
)

Wrap = Callable[[Objective], Objective]


def _identity(objective: Objective) -> Objective:
    return objective


def campaign_seed(seed: int, round_index: int, slot: int) -> int:
    """A 31-bit campaign seed drawn from (run seed, round, slot)."""
    state = np.random.SeedSequence([seed, round_index, slot]).generate_state(1)
    return int(state[0] >> 1)


def digest(X: np.ndarray, y: np.ndarray) -> str:
    h = hashlib.sha256(np.ascontiguousarray(X, dtype=float).tobytes())
    h.update(np.ascontiguousarray(y, dtype=float).tobytes())
    return h.hexdigest()[:16]


def first_failure(y: np.ndarray, threshold: float | None) -> int:
    """1-based index of the first ``y < threshold``; 0 when there is none."""
    if threshold is None:
        return 0
    hits = np.flatnonzero(y < threshold)
    return int(hits[0]) + 1 if hits.size else 0


@dataclass
class CampaignRun:
    name: str
    #: CPU seconds: the campaign's thread's, or a quarter of the service
    #: round's (all threads).
    seconds: float
    wall: float
    points: int
    digest: str
    first_failure: int
    errors: list[str] = field(default_factory=list)
    #: Rescales ``seconds`` to the reference machine (``speed.py``); 1 for
    #: a single-threaded campaign that was not sampled.
    speed: float = 1.0


@dataclass
class RoundRun:
    seconds: float
    campaigns: list[CampaignRun]
    #: Layer figures only the workload can see (cache open, queue wait,
    #: bytes written, duplicate simulations).
    extra: dict[str, float] = field(default_factory=dict)
    #: As for a campaign, weighted by the campaigns' time.
    speed: float = 1.0


def _check_run(
    run: Any,
    expected: int,
    objective: Objective,
    start: int = 0,
    verify: int | None = None,
) -> list[str]:
    """Count and finiteness of a campaign's values, and a bitwise
    re-evaluation of ``verify`` of the rows the broker resolved (all when
    None), from row ``start`` on.

    A cached value answers every point that rounds to the same cache
    digest, so each row is checked against its digest's first row.
    """
    errors = []
    if run.y.shape[0] != expected:
        errors.append(f"resolved {run.y.shape[0]} values, expected {expected}")
    if not np.all(np.isfinite(run.y)):
        errors.append("non-finite objective values")
    X, y = run.X[start:], run.y[start:]
    first: dict[str, int] = {}
    lead = np.array(
        [
            first.setdefault(key, i)
            for i, key in enumerate(
                batch_digests(objective.cache_key, X, decimals=DEFAULT_DECIMALS)
            )
        ]
    )
    rows = np.arange(len(X))
    if verify is not None:
        rows = np.unique(np.linspace(0, len(X) - 1, verify).astype(int))
    if not np.array_equal(objective.evaluate(X[lead[rows]]), y[rows]):
        errors.append("values differ from a direct re-evaluation")
    return errors


class Workload:
    name = ""
    #: Campaigns per round.
    round_size = 1
    #: Rounds every untraced run measures, however long they take, so a
    #: median never rests on one slow round.
    min_rounds = 2
    #: Rounds of the traced pass (fixed, so per-seed counts repeat).
    trace_rounds = 1
    #: Whether single-threaded campaigns run under a ``SpeedSampler``;
    #: ``run.py`` turns it off for the traced pass that gives the layer
    #: figures, whose spans the probes would land in.
    sampled = True

    def setup(self, work: Path) -> None:
        """Objective/testbench construction (and, for the service, cache
        open and scheduler construction); timed as part of ``setup_s``."""

    def warm_up(self, work: Path) -> None:
        """One small untimed campaign so lazy initialisation is not timed."""

    def run_round(
        self,
        seed: int,
        index: int,
        work: Path,
        telemetry: Telemetry | None = None,
        wrap: Wrap = _identity,
    ) -> RoundRun:
        campaigns = [
            self.run_campaign(campaign_seed(seed, index, slot), telemetry, wrap)
            for slot in range(self.round_size)
        ]
        # back to back, so the round's time is the campaigns' sum; input
        # generation and output checks stay outside it
        seconds = sum(c.seconds for c in campaigns)
        speed = sum(c.seconds * c.speed for c in campaigns) / seconds
        return RoundRun(seconds, campaigns, speed=speed)

    def run_campaign(
        self, seed: int, telemetry: Telemetry | None, wrap: Wrap
    ) -> CampaignRun:
        raise NotImplementedError


def _timed_campaign(
    campaign: Campaign, spec: RunSpec, sampled: bool
) -> tuple[Any, float, float, float]:
    """The run, its CPU seconds, wall seconds and speed factor, for a
    single-threaded campaign.  A sampled campaign has the probes' time
    taken out of both times; one not sampled has speed factor 1."""
    if not sampled:
        start, wall = cpu_seconds(), time.perf_counter()
        result = campaign.run(spec)
        return result.run, cpu_seconds() - start, time.perf_counter() - wall, 1.0
    with SpeedSampler() as sampler:
        start, wall = cpu_seconds(), time.perf_counter()
        result = campaign.run(spec)
        seconds, wall = cpu_seconds() - start, time.perf_counter() - wall
    probes = sampler.probe_s
    return result.run, seconds - probes, wall - probes, sampler.speed


class UvloRembo(Workload):
    """Table 1 "This work": REMBO d=8 on behavioural UVLO, 5 + 5x19 sims."""

    name = "uvlo_rembo"
    # one campaign a round, so a run's medians rest on many rounds; three
    # traced rounds give the per-layer figures more than one campaign
    trace_rounds = 3

    def setup(self, work: Path) -> None:
        self.testbench = UVLOTestbench()
        self.objective = self.testbench.objective("delta_vthl")

    def warm_up(self, work: Path) -> None:
        cfg = uvlo_config(seed=0, n_batches=1)
        spec = method_spec("This work", self.testbench, "delta_vthl", cfg)
        Campaign(self.objective, build_engine("This work", cfg), seed=0).run(spec)

    def run_campaign(self, seed, telemetry, wrap):
        cfg = uvlo_config(seed=seed)
        spec = method_spec("This work", self.testbench, "delta_vthl", cfg)
        campaign = Campaign(
            wrap(self.objective),
            build_engine("This work", cfg),
            seed=seed,
            telemetry=telemetry,
            name=f"uvlo-{seed}",
        )
        run, seconds, wall, speed = _timed_campaign(campaign, spec, self.sampled)
        expected = cfg.n_init + cfg.n_batches * cfg.batch_size
        return CampaignRun(
            campaign.spec.name,
            seconds,
            wall,
            run.n_evaluations,
            digest(run.X, run.y),
            first_failure(run.y, spec.threshold),
            _check_run(run, expected, self.objective),
            speed,
        )


class MnaUvlo(Workload):
    """The MNA UVLO demo (Newton solves per row) under REMBO, 16 + 10x8."""

    name = "mna_uvlo"
    # campaigns of about 10 s: a median of three even where the run
    # length allows fewer
    min_rounds = 3
    n_init = 16
    n_batches = 10
    batch_size = 8

    def setup(self, work: Path) -> None:
        self.objective = uvlo_demo_objective()

    def warm_up(self, work: Path) -> None:
        engine = RemboBO(batch_size=2, embedding_dim=4, seed=0)
        Campaign(self.objective, engine, seed=0).run(n_init=4, n_batches=1)

    def run_campaign(self, seed, telemetry, wrap):
        engine = RemboBO(
            batch_size=self.batch_size, embedding_dim=4, seed=seed
        )
        campaign = Campaign(
            wrap(self.objective),
            engine,
            seed=seed,
            telemetry=telemetry,
            name=f"mna-{seed}",
        )
        spec = RunSpec(n_init=self.n_init, n_batches=self.n_batches)
        run, seconds, wall, speed = _timed_campaign(campaign, spec, self.sampled)
        expected = self.n_init + self.n_batches * self.batch_size
        return CampaignRun(
            campaign.spec.name,
            seconds,
            wall,
            run.n_evaluations,
            digest(run.X, run.y),
            0,  # the demo objective carries no spec, so no failure threshold
            # a Newton solve per row: re-evaluate the first and last only
            _check_run(run, expected, self.objective, verify=2),
            speed,
        )


class SparseLong(Workload):
    """Sparse VFE surrogate (m=64) over 1000 seeded initial points, 4x10.

    The problem (a D=20 rare-failure function, effective dimension 3) and
    the engine's random stream are fixed, like a circuit and a configured
    engine; each campaign draws its own 1000 initial points as a Latin
    hypercube.  Drawing the embedding per campaign as well made the
    hyperparameter search's cost swing about twofold between seeds, and
    i.i.d. uniform initial points let it vary more between seeds than a
    Latin hypercube does.
    """

    name = "sparse_long"
    min_rounds = 3  # as for mna_uvlo
    n0 = 1000
    n_batches = 4
    batch_size = 10
    inducing = 64
    engine_seed = 2019

    def setup(self, work: Path) -> None:
        self.function = RareFailureFunction(20, 3, threshold=-1.2, seed=2019)
        self.objective = FunctionObjective(
            self.function,
            dim=20,
            bounds=unit_cube_bounds(20),
            cache_key="rare-failure-20-3-2019",
        )

    def _spec(self, seed: int, n0: int, n_batches: int) -> RunSpec:
        X0 = 2.0 * qmc.LatinHypercube(d=20, seed=seed).random(n0) - 1.0
        return RunSpec(
            n_batches=n_batches,
            initial_data=(X0, self.objective.evaluate(X0)),
            surrogate={"kind": "sparse", "m": self.inducing},
        )

    def _engine(self, batch_size: int) -> RemboBO:
        return RemboBO(batch_size=batch_size, embedding_dim=4, seed=self.engine_seed)

    def warm_up(self, work: Path) -> None:
        Campaign(self.objective, self._engine(2), seed=self.engine_seed).run(
            self._spec(0, 100, 1)
        )

    def run_campaign(self, seed, telemetry, wrap):
        spec = self._spec(seed, self.n0, self.n_batches)
        campaign = Campaign(
            wrap(self.objective),
            self._engine(self.batch_size),
            seed=self.engine_seed,
            telemetry=telemetry,
            name=f"sparse-{seed}",
        )
        run, seconds, wall, speed = _timed_campaign(campaign, spec, self.sampled)
        new = self.n_batches * self.batch_size
        errors = _check_run(run, self.n0 + new, self.objective, start=self.n0)
        X0, y0 = spec.initial_data
        if not (
            np.array_equal(run.X[: self.n0], X0)
            and np.array_equal(run.y[: self.n0], y0)
        ):
            errors.append("initial data not carried into the result")
        return CampaignRun(
            campaign.spec.name,
            seconds,
            wall,
            new,
            digest(run.X, run.y),
            first_failure(run.y[self.n0 :], self.function.threshold),
            errors,
            speed,
        )


#: How much of the probes' speed factor applies to a service round.  The
#: probes sit outside the round, so they follow its speed only loosely;
#: with the full factor, ten-seed spreads were 0.15-0.19 and the rescaled
#: medians rose 10% when the host got less busy (raw CPU time fell 10%).
#: With the square root, spreads were 0.09-0.11 and the medians of the
#: same two sets differed by 0.3%.
SERVICE_SPEED_EXPONENT = 0.5


def _dir_bytes(path: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in path.glob(pattern) if p.is_file())


class ServeMcShared(Workload):
    """Four MC(20k) campaigns, seeds (a, b, a, b), two at a time, over one
    fresh persistent cache with per-campaign ledgers."""

    name = "serve_mc_shared"
    round_size = 4
    samples = 20_000

    def setup(self, work: Path) -> None:
        self.testbench = UVLOTestbench()
        self.objective = self.testbench.objective("delta_vthl")
        root = work / "serve-setup"
        with ResultCache.open(root / "cache") as cache:
            CampaignScheduler(root, cache=cache, max_concurrent=2).close()
        shutil.rmtree(root)

    def _specs(self, seeds: list[int], samples: int, wrap: Wrap) -> list:
        specs = []
        objective = wrap(self.objective)
        for slot, seed in enumerate(seeds):
            cfg = uvlo_config(seed=seed, mc_samples=samples)
            specs.append(
                CampaignSpec(
                    objective=objective,
                    engine=functools.partial(build_engine, "MC", cfg),
                    run_spec=method_spec("MC", self.testbench, "delta_vthl", cfg),
                    seed=seed,
                    name=f"mc{slot}-{seed}",
                )
            )
        return specs

    def warm_up(self, work: Path) -> None:
        root = work / "serve-warm"
        with ResultCache.open(root / "cache") as cache:
            with CampaignScheduler(root, cache=cache, max_concurrent=2) as sched:
                sched.submit_all(self._specs([1, 2, 1, 2], 500, _identity))
                sched.run()
        shutil.rmtree(root)

    def run_round(self, seed, index, work, telemetry=None, wrap=_identity):
        a, b = (campaign_seed(seed, index, slot) for slot in (0, 1))
        seeds = [a, b, a, b]
        root = work / f"serve-{index}"
        start = time.perf_counter()
        cache = ResultCache.open(root / "cache")
        open_s = time.perf_counter() - start
        try:
            with CampaignScheduler(
                root, cache=cache, max_concurrent=2, telemetry=telemetry
            ) as scheduler:
                scheduler.submit_all(self._specs(seeds, self.samples, wrap))
                # CPU seconds of every thread, rescaled by probes on each
                # side: probes during the round would compete with the
                # workers for the CPUs and the GIL, and read how busy the
                # program keeps them, not how fast the CPUs are
                probes = [probe(600) for _ in range(3)]
                start = process_cpu_seconds()
                result = scheduler.run()
                seconds = process_cpu_seconds() - start
                probes += [probe(600) for _ in range(3)]
                speed = speed_factor(probes) ** SERVICE_SPEED_EXPONENT
            # a property that re-reads every ledger: read it once
            duplicates = result.duplicate_simulations
            campaigns = self._check(
                result, duplicates, seeds, root / "cache", seconds, speed
            )
            extra = {
                "cache.open_s": open_s,
                "serve.queue_wait_s": sum(
                    o.queue_wait_seconds for o in result.outcomes
                ),
                "serve.duplicate_simulations": duplicates,
                "cache.bytes": _dir_bytes(root / "cache", "*"),
                "ledger.bytes": _dir_bytes(root, "*.jsonl"),
            }
        finally:
            cache.close()
            shutil.rmtree(root, ignore_errors=True)
        return RoundRun(seconds, campaigns, extra, speed)

    def _check(
        self,
        result: Any,
        duplicates: int,
        seeds: list[int],
        store: Path,
        seconds: float,
        speed: float,
    ) -> list[CampaignRun]:
        """The campaigns' checks; each is charged an equal share of the
        round's CPU seconds, since their threads interleave."""
        n = self.samples
        unique = len(set(seeds)) * n
        shared: list[str] = []
        if duplicates != 0:
            shared.append(f"{duplicates} duplicate simulations")
        hits = result.cache_stats.get("hits")
        if hits != len(seeds) * n - unique:
            shared.append(f"{hits} cache hits, expected {len(seeds) * n - unique}")
        with ResultCache.open(store) as reopened:
            if len(reopened) != unique:
                shared.append(f"{len(reopened)} entries persisted, expected {unique}")
        threshold = self.testbench.threshold("delta_vthl")
        first_digest: dict[int, str] = {}
        campaigns = []
        for outcome, seed in zip(result.outcomes, seeds):
            errors = list(shared)
            if not outcome.ok or outcome.result is None:
                errors.append(f"campaign failed: {outcome.error}")
                campaigns.append(
                    CampaignRun(outcome.name, 0.0, 0.0, 0, "", 0, errors, speed)
                )
                continue
            run = outcome.result.run
            errors += _check_run(run, n, self.objective, verify=100)
            d = digest(run.X, run.y)
            counts = read_ledger(outcome.ledger_path).counts
            simulated = 0 if seed in first_digest else n
            if counts.get("completed", 0) != simulated or (
                counts.get("completed", 0) + counts.get("cache_hit", 0) != n
            ):
                errors.append(f"ledger counts {counts}, expected {simulated} simulated")
            if first_digest.setdefault(seed, d) != d:
                errors.append("repeat campaign differs from its first run")
            campaigns.append(
                CampaignRun(
                    outcome.name,
                    seconds / len(seeds),
                    outcome.elapsed_seconds,
                    run.n_evaluations,
                    d,
                    first_failure(run.y, threshold),
                    errors,
                    speed,
                )
            )
        return campaigns


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (UvloRembo, MnaUvlo, SparseLong, ServeMcShared)
}
