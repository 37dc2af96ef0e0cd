"""Method registry: every row of the paper's Tables 1-2 as a campaign.

``build_engine(name, cfg)`` constructs the engine/sampler behind one table
row; ``method_campaign(name, ...)`` describes one (method, spec) cell as a
:class:`~repro.campaign.CampaignSpec`, and ``run_method(name, ...)`` runs
that cell through :func:`~repro.campaign.run_campaign_spec` and returns
the full :class:`RunResult`.  Table cells, ablation variants and service
jobs (:mod:`repro.serve.jobs`) are all built here.  ``METHOD_ORDER`` fixes
the paper's row order.  All BO methods share the same initial dataset (as
the paper's setups do) and the same acquisition-evaluation caps; the
proposed method differs only by operating through the random embedding.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any

import numpy as np

from repro.bo.batch import BatchBO
from repro.bo.engine import Engine, RunSpec, uniform_initial_design
from repro.bo.loop import SequentialBO
from repro.bo.records import RunResult
from repro.bo.rembo import RemboBO
from repro.campaign import CampaignSpec, run_campaign_spec
from repro.circuits.behavioral.base import CircuitTestbench
from repro.experiments.config import ExperimentConfig
from repro.runtime.broker import EvaluationBroker, RuntimePolicy
from repro.sampling.monte_carlo import MonteCarloSampler
from repro.sampling.sss import ScaledSigmaSampler
from repro.telemetry.config import TelemetryLike

#: Paper row order in Tables 1-2.
METHOD_ORDER = ("MC", "SSS", "EI", "PI", "LCB", "pBO", "This work")


def build_engine(
    name: str, cfg: ExperimentConfig, /, **overrides: Any
) -> Engine:
    """Construct the engine/sampler behind one :data:`METHOD_ORDER` row.

    ``cfg`` supplies the constructor arguments and the seed.  ``overrides``
    replace constructor arguments by name (an ablation's variant, a job
    file's ``engine`` table); one the engine's constructor does not take,
    ``seed`` included, raises a ``ValueError`` naming the allowed keys.
    A caller wanting another seed passes ``dataclasses.replace(cfg,
    seed=...)``.  BO engines get one shared lengthscale (``ard=False``,
    the BayesOpt default the paper's baselines used) unless an override
    sets ``ard``.
    """
    search: dict[str, Any] = dict(
        ard=False,
        noise_variance=cfg.noise_variance,
        global_budget=cfg.global_budget,
        local_budget=cfg.local_budget,
    )
    ctor: Any
    kwargs: dict[str, Any]
    if name == "MC":
        ctor, kwargs = MonteCarloSampler, dict(n_samples=cfg.mc_samples)
    elif name == "SSS":
        ctor, kwargs = ScaledSigmaSampler, dict(
            samples_per_scale=cfg.sss_samples_per_scale, scales=cfg.sss_scales
        )
    elif name in ("EI", "PI", "LCB"):
        ctor, kwargs = SequentialBO, dict(
            acquisition=name.lower(), tune_every=cfg.tune_every_sequential, **search
        )
    elif name == "pBO":
        ctor, kwargs = BatchBO, dict(
            batch_size=cfg.batch_size, tune_every=cfg.tune_every_batch, **search
        )
    elif name == "This work":
        ctor, kwargs = RemboBO, dict(
            batch_size=cfg.batch_size,
            embedding_dim=cfg.embedding_dim,
            dimension_trials=cfg.dimension_trials,
            tune_every=cfg.tune_every_batch,
            **search,
        )
    else:
        raise ValueError(f"unknown method {name!r}; options: {METHOD_ORDER}")
    allowed = sorted(set(inspect.signature(ctor).parameters) - {"seed"})
    unknown = sorted(set(overrides) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown engine keys for {name!r}: {unknown}; allowed: {allowed}"
        )
    kwargs.update(overrides)
    return ctor(seed=cfg.seed, **kwargs)


def method_spec(
    name: str,
    testbench: CircuitTestbench,
    spec_name: str,
    cfg: ExperimentConfig,
    initial_data: tuple[np.ndarray, np.ndarray] | None = None,
) -> RunSpec:
    """The :class:`RunSpec` one table cell runs under."""
    bounds = testbench.bounds()
    threshold = testbench.threshold(spec_name)
    if name in ("MC", "SSS"):
        return RunSpec(bounds=bounds, threshold=threshold)
    if name in ("EI", "PI", "LCB"):
        return RunSpec(
            bounds=bounds,
            n_init=cfg.n_init,
            budget=cfg.bo_budget,
            threshold=threshold,
            initial_data=initial_data,
        )
    if name in ("pBO", "This work"):
        return RunSpec(
            bounds=bounds,
            n_init=cfg.n_init,
            n_batches=cfg.n_batches,
            threshold=threshold,
            initial_data=initial_data,
        )
    raise ValueError(f"unknown method {name!r}; options: {METHOD_ORDER}")


def shared_initial_data(
    testbench: CircuitTestbench,
    spec_name: str,
    cfg: ExperimentConfig,
    runtime: RuntimePolicy | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The initial dataset D_0 shared by every BO method (paper §5.1).

    Routed through the evaluation runtime so a shared ``runtime`` caches
    the initial simulations: every method reusing this design (or
    re-evaluating the same points) is then served without re-simulating,
    since the cache keeps every result.  Pass
    ``RuntimePolicy.shared(cache=ResultCache.open(path))`` to persist the
    initial simulations in an on-disk store that later campaigns (or the
    ``repro.serve`` scheduler) can reuse.
    """
    objective = testbench.objective(spec_name)
    X = uniform_initial_design(testbench.bounds(), cfg.n_init, seed=cfg.seed)
    policy = runtime if runtime is not None else RuntimePolicy.shared()
    broker = EvaluationBroker(
        objective,
        config=policy.config,
        cache=policy.cache,
        ledger=policy.ledger,
        campaign={"method": "initial_design", "spec": spec_name},
    )
    return X, broker.evaluate_batch(X)


def method_campaign(
    name: str,
    testbench: CircuitTestbench,
    spec_name: str,
    cfg: ExperimentConfig,
    initial_data: tuple[np.ndarray, np.ndarray] | None = None,
    **overrides: Any,
) -> CampaignSpec:
    """One (method, spec) cell as a :class:`CampaignSpec`.

    The engine is a :func:`build_engine` factory, so every run of the spec
    starts from a fresh engine seeded alike; the run is
    :func:`method_spec`'s.
    """
    return CampaignSpec(
        objective=testbench.objective(spec_name),
        engine=functools.partial(build_engine, name, cfg, **overrides),
        run_spec=method_spec(name, testbench, spec_name, cfg, initial_data),
        name=f"{spec_name}-{name}",
    )


def run_method(
    name: str,
    testbench: CircuitTestbench,
    spec_name: str,
    cfg: ExperimentConfig,
    initial_data: tuple[np.ndarray, np.ndarray] | None = None,
    runtime: RuntimePolicy | None = None,
    telemetry: TelemetryLike = None,
    **overrides: Any,
) -> RunResult:
    """Execute one method against one spec and return its evaluation log.

    A BO method without ``initial_data`` first simulates the shared
    :func:`shared_initial_data`.  ``runtime`` threads a shared
    :class:`RuntimePolicy` (cache / ledger / retries) through the
    method's evaluations; methods sharing a policy never re-simulate a
    point any of them has already evaluated.  ``telemetry`` receives the
    campaign's spans and broker metrics; ``overrides`` go to
    :func:`build_engine`.
    """
    build_engine(name, cfg, **overrides)  # a bad name fails before D_0
    if name not in ("MC", "SSS") and initial_data is None:
        initial_data = shared_initial_data(
            testbench, spec_name, cfg, runtime=runtime
        )
    cell = method_campaign(
        name, testbench, spec_name, cfg, initial_data, **overrides
    )
    return run_campaign_spec(cell, policy=runtime, telemetry=telemetry).run
