"""Job files → validated :class:`~repro.campaign.CampaignSpec` objects.

The service accepts declarative jobs so campaigns can be queued without
writing Python.  A job file is JSON (always available) or TOML (Python
≥ 3.11, via :mod:`tomllib`) holding either one job object/table or a
``jobs`` list; a directory submits every ``*.json`` / ``*.toml`` inside
it, sorted by filename for a deterministic queue order.

Job schema (all keys optional except ``name``, ``testbench``,
``engine.kind``)::

    {
      "name": "uvlo-vthl-a",          // ledger/result file stem
      "priority": 1,                  // higher drains first
      "seed": 7,                      // campaign re-seed per run
      "testbench": "uvlo",            // uvlo | ldo
      "measure": "delta_vthl",        // testbench measure name
      "engine": {"kind": "rembo", "batch_size": 4, "seed": 7},
      "run": {"n_init": 6, "n_batches": 2, "threshold": "auto"},
      "surrogate": {"kind": "sparse", "m": 256},  // or just "sparse"
      "faults": {"failure_rate": 0.2},   // optional FaultPlan knobs
      "eval_delay_seconds": 0.05         // optional pacing (kill tests)
    }

``threshold: "auto"`` resolves to the testbench's specified threshold
for ``measure``.  ``surrogate`` picks the GP surrogate and fills the
run's ``RunSpec.surrogate`` — a kind string (``"exact"`` / ``"sparse"``)
or a table of :class:`~repro.gp.surrogate.SurrogateSpec` fields
(``kind`` and the integer inducing budget ``m``).  Everything is
validated at load time, so a bad value rejects the job file, not the
running campaign: the surrogate, the ``engine`` table's keys (checked
against the engine constructor's parameters) and their values (one
engine is built and discarded); :func:`load_jobs` reports a rejected
job as a ``ValueError`` that names its file.  Every engine parameter
takes a value, so a job file can set each of them — the acquisition caps
``global_budget`` / ``local_budget`` and the kernel's ``ard`` flag
included.  Engines are registered as *factories*: every (re)submission
constructs a pristine solver, which is what makes ``--resume`` replay an
interrupted campaign bitwise.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from typing import Any, Callable

from repro.bo.batch import BatchBO
from repro.bo.engine import EngineProtocol, RunSpec
from repro.bo.loop import SequentialBO
from repro.bo.rembo import RemboBO
from repro.campaign import CampaignSpec
from repro.runtime.faults import (
    DelayObjective,
    FaultInjectingObjective,
    FaultPlan,
)
from repro.sampling.monte_carlo import MonteCarloSampler

try:  # Python >= 3.11; TOML jobs degrade gracefully below that
    import tomllib
except ImportError:  # pragma: no cover - version-dependent
    tomllib = None  # type: ignore[assignment]

#: Engine registry: kind → constructor (params become keyword arguments).
ENGINE_KINDS: dict[str, Callable[..., EngineProtocol]] = {
    "rembo": RemboBO,
    "batch": BatchBO,
    "sequential": SequentialBO,
    "monte-carlo": MonteCarloSampler,
}

#: RunSpec fields a job's ``run`` table may set (plus "threshold": "auto").
_RUN_KEYS = ("n_init", "budget", "n_batches", "threshold")


def _make_testbench(name: str) -> Any:
    if name == "uvlo":
        from repro.circuits.behavioral.uvlo import UVLOTestbench

        return UVLOTestbench()
    if name == "ldo":
        from repro.circuits.behavioral.ldo import LDOTestbench

        return LDOTestbench()
    raise ValueError(f"unknown testbench {name!r}; options: uvlo, ldo")


def _engine_factory(
    engine_cfg: dict[str, Any], default_seed: Any
) -> Callable[[], EngineProtocol]:
    cfg = dict(engine_cfg)
    kind = cfg.pop("kind", None)
    if kind not in ENGINE_KINDS:
        raise ValueError(
            f"engine.kind must be one of {sorted(ENGINE_KINDS)}, got {kind!r}"
        )
    ctor = ENGINE_KINDS[kind]
    allowed = sorted(
        name
        for name, param in inspect.signature(ctor).parameters.items()
        if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
    )
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown engine keys for kind {kind!r}: {unknown}; "
            f"allowed: {allowed}"
        )
    if "seed" not in cfg and default_seed is not None:
        cfg["seed"] = default_seed
    ctor(**cfg)  # a bad value fails here, at load, not when the job runs
    # a fresh solver per call: resubmission/resume must never reuse
    # internal state an earlier run advanced
    return lambda: ctor(**cfg)


def build_spec(payload: dict[str, Any]) -> CampaignSpec:
    """One job object → a validated :class:`CampaignSpec`."""
    if not isinstance(payload, dict):
        raise ValueError(f"a job must be an object/table, got {type(payload).__name__}")
    unknown = set(payload) - {
        "name",
        "priority",
        "seed",
        "testbench",
        "measure",
        "engine",
        "run",
        "surrogate",
        "faults",
        "eval_delay_seconds",
    }
    if unknown:
        raise ValueError(f"unknown job keys: {sorted(unknown)}")
    name = payload.get("name")
    if not name:
        raise ValueError("every job needs a non-empty 'name'")
    bench = _make_testbench(str(payload.get("testbench", "")))
    measure = str(payload.get("measure", "delta_vthl"))
    seed = payload.get("seed")

    objective = bench.objective(measure)
    faults = payload.get("faults")
    if faults:
        objective = FaultInjectingObjective(objective, FaultPlan(**faults))
    delay = float(payload.get("eval_delay_seconds", 0.0))
    if delay > 0.0:
        objective = DelayObjective(objective, delay)

    engine_cfg = payload.get("engine")
    if not isinstance(engine_cfg, dict):
        raise ValueError("every job needs an 'engine' object with a 'kind'")

    run_cfg = dict(payload.get("run") or {})
    unknown_run = set(run_cfg) - set(_RUN_KEYS)
    if unknown_run:
        raise ValueError(f"unknown run keys: {sorted(unknown_run)}")
    if run_cfg.get("threshold") == "auto":
        run_cfg["threshold"] = bench.threshold(measure)
    run_spec = RunSpec(
        bounds=bench.bounds(), surrogate=payload.get("surrogate"), **run_cfg
    )

    return CampaignSpec(
        objective=objective,
        engine=_engine_factory(engine_cfg, seed),
        run_spec=run_spec,
        seed=seed,
        name=str(name),
        priority=int(payload.get("priority", 0)),
    )


def _load_payloads(path: Path) -> list[dict[str, Any]]:
    if path.suffix == ".toml":
        if tomllib is None:
            raise RuntimeError(
                f"{path}: TOML job files need Python >= 3.11 (tomllib); "
                "use JSON on this interpreter"
            )
        data = tomllib.loads(path.read_text(encoding="utf-8"))
    elif path.suffix == ".json":
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        raise ValueError(f"{path}: job files must be .json or .toml")
    if isinstance(data, dict) and "jobs" in data:
        jobs = data["jobs"]
        if not isinstance(jobs, list):
            raise ValueError(f"{path}: 'jobs' must be a list")
        return list(jobs)
    if isinstance(data, dict):
        return [data]
    if isinstance(data, list):
        return list(data)
    raise ValueError(f"{path}: expected a job object or a list of jobs")


def load_jobs(paths: list[str | Path]) -> list[CampaignSpec]:
    """Job files and/or directories → specs, in deterministic order."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                sorted(
                    p
                    for p in path.iterdir()
                    if p.suffix in (".json", ".toml")
                )
            )
        elif path.exists():
            files.append(path)
        else:
            raise FileNotFoundError(f"job file {path} does not exist")
    specs: list[CampaignSpec] = []
    for file in files:
        for payload in _load_payloads(file):
            try:
                specs.append(build_spec(payload))
            except (TypeError, ValueError) as exc:  # a bad value in the file
                raise ValueError(f"{file}: {exc}") from exc
    if not specs:
        raise ValueError(f"no jobs found under {', '.join(map(str, paths))}")
    return specs


__all__ = ["ENGINE_KINDS", "build_spec", "load_jobs"]
