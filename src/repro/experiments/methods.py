"""Method registry: every row of the paper's Tables 1-2 as a runnable.

``build_engine(name, cfg)`` constructs the engine/sampler behind one table
row; ``run_method(name, ...)`` executes one (method, spec) cell through the
shared :meth:`solve` entry point and returns the full :class:`RunResult`;
``METHOD_ORDER`` fixes the paper's row order.  All BO methods share the
same initial dataset (as the paper's setups do) and the same
acquisition-evaluation caps; the proposed method differs only by operating
through the random embedding.
"""

from __future__ import annotations

import numpy as np

from repro.bo.batch import BatchBO
from repro.bo.engine import EngineProtocol, RunSpec, uniform_initial_design
from repro.bo.loop import SequentialBO
from repro.bo.records import RunResult
from repro.bo.rembo import RemboBO
from repro.circuits.behavioral.base import CircuitTestbench
from repro.experiments.config import ExperimentConfig
from repro.runtime.broker import EvaluationBroker, RuntimePolicy
from repro.sampling.monte_carlo import MonteCarloSampler
from repro.sampling.sss import ScaledSigmaSampler
from repro.telemetry.config import TelemetryLike
from repro.utils.rng import SeedLike

#: Paper row order in Tables 1-2.
METHOD_ORDER = ("MC", "SSS", "EI", "PI", "LCB", "pBO", "This work")


def build_engine(
    name: str, cfg: ExperimentConfig, seed: SeedLike = None
) -> EngineProtocol:
    """Construct the engine/sampler behind one :data:`METHOD_ORDER` row.

    The returned object satisfies :class:`EngineProtocol`; run it via
    ``solve(objective=..., spec=...)`` or hand it to a
    :class:`~repro.campaign.Campaign`.
    """
    seed = cfg.seed if seed is None else seed
    if name == "MC":
        return MonteCarloSampler(cfg.mc_samples, seed=seed)
    if name == "SSS":
        return ScaledSigmaSampler(
            cfg.sss_samples_per_scale, scales=cfg.sss_scales, seed=seed
        )
    if name in ("EI", "PI", "LCB"):
        return SequentialBO(
            acquisition=name.lower(),
            ard=cfg.ard,
            noise_variance=cfg.noise_variance,
            tune_every=cfg.tune_every_sequential,
            global_budget=cfg.global_budget,
            local_budget=cfg.local_budget,
            seed=seed,
        )
    if name == "pBO":
        return BatchBO(
            batch_size=cfg.batch_size,
            ard=cfg.ard,
            noise_variance=cfg.noise_variance,
            tune_every=cfg.tune_every_batch,
            global_budget=cfg.global_budget,
            local_budget=cfg.local_budget,
            seed=seed,
        )
    if name == "This work":
        return RemboBO(
            batch_size=cfg.batch_size,
            embedding_dim=cfg.embedding_dim,
            dimension_trials=cfg.dimension_trials,
            ard=cfg.ard,
            noise_variance=cfg.noise_variance,
            tune_every=cfg.tune_every_batch,
            global_budget=cfg.global_budget,
            local_budget=cfg.local_budget,
            seed=seed,
        )
    raise ValueError(f"unknown method {name!r}; options: {METHOD_ORDER}")


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
    re-evaluating the same points) is then served without re-simulating.
    Pass ``RuntimePolicy.shared(cache_path=...)`` to persist the initial
    simulations in an on-disk :meth:`ResultCache.open` store that later
    campaigns (or the ``repro.serve`` scheduler) can reuse.
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
    batch = broker.evaluate_batch(X)
    if batch.n_evaluated != X.shape[0]:
        raise RuntimeError(
            "initial design lost points to the skip policy; the shared "
            "dataset must be complete"
        )
    return batch.X, batch.y


def run_method(
    name: str,
    testbench: CircuitTestbench,
    spec_name: str,
    cfg: ExperimentConfig,
    initial_data: tuple[np.ndarray, np.ndarray] | None = None,
    seed: SeedLike = None,
    runtime: RuntimePolicy | None = None,
    telemetry: TelemetryLike = None,
) -> RunResult:
    """Execute one method against one spec and return its evaluation log.

    ``runtime`` threads a shared :class:`RuntimePolicy` (cache / ledger /
    failure policy) through the method's evaluations; methods sharing a
    policy never re-simulate a point any of them has already evaluated.
    ``telemetry`` receives the engine's spans and broker metrics.
    """
    objective = testbench.objective(spec_name)
    engine = build_engine(name, cfg, seed=seed)
    if name not in ("MC", "SSS") and initial_data is None:
        initial_data = shared_initial_data(
            testbench, spec_name, cfg, runtime=runtime
        )
    spec = method_spec(name, testbench, spec_name, cfg, initial_data=initial_data)
    return engine.solve(
        objective=objective, spec=spec, policy=runtime, telemetry=telemetry
    )
