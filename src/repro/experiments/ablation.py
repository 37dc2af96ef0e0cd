"""Ablation studies on the design choices DESIGN.md calls out.

Each function runs a small controlled comparison on a testbench spec and
returns rows for the benchmark harness:

* :func:`embedding_dimension_sweep` — Algorithm 2's pick versus over- and
  under-compressed embedding dimensions (DESIGN choice 1).
* :func:`acquisition_weight_ablation` — the multi-weight pBO batch versus
  a single-weight LCB batch (DESIGN choice 2).
* :func:`projection_ablation` — the clip projection ``p_Ω`` versus
  ray-rescaling out-of-box images (DESIGN choice 3).
* :func:`kernel_ablation` — ARD versus isotropic kernels in the embedded
  space (DESIGN choice 4).

Every variant is the "This work" table cell with constructor overrides,
run by :func:`~repro.experiments.methods.run_method`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bo.records import RunResult
from repro.circuits.behavioral.base import CircuitTestbench
from repro.embedding.random_embedding import RandomEmbedding
from repro.experiments.config import ExperimentConfig
from repro.experiments.methods import run_method, shared_initial_data


@dataclass
class AblationRow:
    """One variant's outcome."""

    variant: str
    worst_value: float
    n_failures: int
    first_failure_index: int | None
    total_seconds: float


def _summary_row(variant: str, result: RunResult, threshold: float) -> AblationRow:
    summary = result.summarize(threshold)
    return AblationRow(
        variant=variant,
        worst_value=result.best_y,
        n_failures=summary.n_failures,
        first_failure_index=summary.first_failure_index,
        total_seconds=result.total_seconds,
    )


def embedding_dimension_sweep(
    testbench: CircuitTestbench,
    spec_name: str,
    cfg: ExperimentConfig,
    dims=None,
) -> list[AblationRow]:
    """Run the proposed method at several fixed embedding dimensions."""
    if dims is None:
        base = cfg.embedding_dim or 8
        dims = sorted({max(2, base // 4), max(2, base // 2), base, min(testbench.dim, base * 2)})
    initial = shared_initial_data(testbench, spec_name, cfg)
    threshold = testbench.threshold(spec_name)
    rows = []
    for d in dims:
        result = run_method(
            "This work", testbench, spec_name, cfg, initial, embedding_dim=int(d)
        )
        rows.append(_summary_row(f"d={d}", result, threshold))
    return rows


def acquisition_weight_ablation(
    testbench: CircuitTestbench,
    spec_name: str,
    cfg: ExperimentConfig,
) -> list[AblationRow]:
    """Multi-weight pBO ladder versus a single repeated LCB-style weight."""
    initial = shared_initial_data(testbench, spec_name, cfg)
    threshold = testbench.threshold(spec_name)
    multi = run_method("This work", testbench, spec_name, cfg, initial)
    single = run_method(
        "This work",
        testbench,
        spec_name,
        cfg,
        initial,
        weights=np.full(cfg.batch_size, 0.5),
    )
    return [
        _summary_row("multi-weight ladder", multi, threshold),
        _summary_row("single weight w=0.5", single, threshold),
    ]


def kernel_ablation(
    testbench: CircuitTestbench,
    spec_name: str,
    cfg: ExperimentConfig,
) -> list[AblationRow]:
    """ARD versus isotropic Matérn-5/2 in the embedded space."""
    initial = shared_initial_data(testbench, spec_name, cfg)
    threshold = testbench.threshold(spec_name)
    iso = run_method("This work", testbench, spec_name, cfg, initial, ard=False)
    ard = run_method("This work", testbench, spec_name, cfg, initial, ard=True)
    return [
        _summary_row("isotropic Matern-5/2", iso, threshold),
        _summary_row("ARD Matern-5/2", ard, threshold),
    ]


def projection_ablation(
    testbench: CircuitTestbench,
    spec_name: str,
    cfg: ExperimentConfig,
) -> list[AblationRow]:
    """Clip projection ``p_Ω`` versus ray-rescaling out-of-box images.

    Ray rescaling maps ``A z`` outside Ω to the boundary point along the
    ray from the origin, ``x = A z / ‖A z‖_∞`` — it keeps iterates inside
    Ω but destroys the coordinate-wise saturation (corner concentration)
    that clipping provides.  The variant replaces
    :meth:`RandomEmbedding.project`, the map the campaign loop simulates
    its proposals through, for the length of one run.
    """
    initial = shared_initial_data(testbench, spec_name, cfg)
    threshold = testbench.threshold(spec_name)
    clip = run_method("This work", testbench, spec_name, cfg, initial)

    project = RandomEmbedding.project

    def ray_rescaled(self, Z):
        raw = np.asarray(Z, dtype=float) @ self.matrix.T
        X = raw / np.maximum(np.abs(raw).max(axis=-1, keepdims=True), 1.0)
        return X, float(np.mean(raw != X))

    RandomEmbedding.project = ray_rescaled
    try:
        rescale = run_method("This work", testbench, spec_name, cfg, initial)
    finally:
        RandomEmbedding.project = project
    return [
        _summary_row("clip projection p_Omega", clip, threshold),
        _summary_row("ray rescaling", rescale, threshold),
    ]
