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
      "seed": 7,                      // the paper config's seed
      "testbench": "uvlo",            // uvlo | ldo
      "measure": "delta_vthl",        // a spec of the testbench
      "engine": {"kind": "This work", "batch_size": 4},
      "run": {"n_init": 6, "n_batches": 2},
      "surrogate": {"kind": "sparse", "m": 256},  // or just "sparse"
      "faults": {"failure_rate": 0.2},   // optional FaultPlan knobs
      "eval_delay_seconds": 0.05         // optional pacing (kill tests)
    }

A job is built by :func:`~repro.experiments.methods.method_campaign`
from the paper config, but without ``initial_data``: a BO job draws its
own D_0 from the engine's seed, so it equals ``run_campaign_spec(
method_campaign(...))`` without ``initial_data``, not ``run_table``'s
cell, which shares one D_0 across methods.  ``engine.kind`` is a
:data:`~repro.experiments.methods.METHOD_ORDER` name, and the testbench
name picks its paper config (``uvlo_config`` / ``ldo_config``) at the
job's ``seed``.  The config supplies every default — so ``ard`` is False
unless the ``engine`` table sets it — and the threshold is the measure's
spec threshold.  The ``engine`` table's other keys override constructor
arguments; the ``run`` table overrides ``n_init``, ``budget`` and
``n_batches``; ``surrogate`` fills ``RunSpec.surrogate`` (a kind string,
``"exact"`` / ``"sparse"``, or a table of ``kind`` and the integer
inducing budget ``m``).

Everything is validated at load time, engine values and run keys
included: one engine is built, checks the run spec against what it reads
(:meth:`~repro.bo.engine.Engine.check` rejects an MC job's ``budget`` or
an EI job's ``n_batches``) and is discarded.  So a bad value rejects the
job file, not the running campaign; :func:`load_jobs` reports a rejected
job as a ``ValueError`` that names its file.  The engine is a factory:
every (re)submission constructs a pristine solver, which is what makes
``--resume`` replay an interrupted campaign bitwise.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.campaign import CampaignSpec
from repro.experiments.config import TESTBENCHES
from repro.experiments.methods import METHOD_ORDER, build_engine, method_campaign
from repro.runtime.faults import (
    DelayObjective,
    FaultInjectingObjective,
    FaultPlan,
)

try:  # Python >= 3.11; TOML jobs degrade gracefully below that
    import tomllib
except ImportError:  # pragma: no cover - version-dependent
    tomllib = None  # type: ignore[assignment]

#: RunSpec fields a job's ``run`` table may set.
_RUN_KEYS = ("budget", "n_batches", "n_init")


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
    testbench = payload.get("testbench")
    if testbench not in TESTBENCHES:
        raise ValueError(
            f"unknown testbench {testbench!r}; options: {sorted(TESTBENCHES)}"
        )
    bench_type, paper_config = TESTBENCHES[testbench]
    bench = bench_type()
    measure = payload.get("measure", "delta_vthl")
    if measure not in bench.specs:
        raise ValueError(
            f"testbench {testbench!r} has no measure {measure!r}; "
            f"options: {sorted(bench.specs)}"
        )
    seed = payload.get("seed")
    cfg = paper_config() if seed is None else paper_config(seed=seed)

    engine_cfg = payload.get("engine")
    if not isinstance(engine_cfg, dict):
        raise ValueError("every job needs an 'engine' object with a 'kind'")
    overrides = dict(engine_cfg)
    kind = overrides.pop("kind", None)
    if kind not in METHOD_ORDER:
        raise ValueError(
            f"engine.kind must be one of {list(METHOD_ORDER)}, got {kind!r}"
        )
    run_cfg = dict(payload.get("run") or {})
    unknown_run = set(run_cfg) - set(_RUN_KEYS)
    if unknown_run:
        raise ValueError(
            f"unknown run keys: {sorted(unknown_run)}; allowed: {list(_RUN_KEYS)}"
        )
    engine = build_engine(kind, cfg, **overrides)  # a bad key or value fails at load
    cell = method_campaign(kind, bench, measure, cfg, **overrides)
    run_spec = replace(
        cell.run_spec, surrogate=payload.get("surrogate"), **run_cfg
    )
    engine.check(run_spec, bench.bounds())  # so does a run key it does not read

    objective = cell.objective
    faults = payload.get("faults")
    if faults:
        objective = FaultInjectingObjective(objective, FaultPlan(**faults))
    delay = float(payload.get("eval_delay_seconds", 0.0))
    if delay > 0.0:
        objective = DelayObjective(objective, delay)

    return replace(
        cell,
        objective=objective,
        run_spec=run_spec,
        name=str(name),
        priority=payload.get("priority", 0),
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


__all__ = ["build_spec", "load_jobs"]
