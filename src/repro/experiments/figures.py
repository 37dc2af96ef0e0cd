"""Figure reproductions: Fig. 2 (optimizer scaling), Fig. 3 (embedding
illustration) and Fig. 6 (embedding-dimension selection curves).

Each function returns the numeric series the corresponding figure plots;
the benchmark scripts print them as aligned tables (this library renders
no graphics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.behavioral.base import CircuitTestbench
from repro.embedding.dimension_selection import select_embedding_dimension
from repro.embedding.random_embedding import RandomEmbedding
from repro.experiments.config import ExperimentConfig
from repro.optim.cobyla import cobyla_rows
from repro.optim.direct import RowObjective, direct_rows
from repro.synthetic.functions import ysyn
from repro.utils.rng import SeedLike, as_generator, spawn
from repro.utils.validation import unit_cube_bounds


# -- Fig. 2: function evaluations per optimization vs dimension -------------


@dataclass
class OptimizerScalingResult:
    """Evaluations-to-converge per optimizer per dimension (Fig. 2)."""

    dims: np.ndarray
    evaluations: dict[str, np.ndarray]  # optimizer name -> per-dim counts


def optimizer_scaling(
    dims=(2, 5, 10, 20, 30, 40, 50, 60),
    n_repeats: int = 3,
    f_target: float = 0.05,
    max_evaluations: int = 200_000,
    seed: SeedLike = None,
) -> OptimizerScalingResult:
    """Reproduce Fig. 2 on the paper's Eq. 10 objective.

    For each dimension ``D``, a random target ``c`` inside the box is
    drawn and each optimizer runs until ``y_syn`` falls below ``f_target``
    (the optimum is 0); the consumed evaluation count is averaged over
    ``n_repeats`` draws.  Both counts grow super-linearly in ``D``, which
    is the paper's Section 3 argument.
    """
    rng = as_generator(seed)
    dims = np.asarray(list(dims), dtype=int)
    counts: dict[str, list[float]] = {"DIRECT-L": [], "COBYLA": []}
    for D in dims:
        lower, upper = unit_cube_bounds(int(D)).T
        per_method = {"DIRECT-L": [], "COBYLA": []}
        for child in spawn(rng, n_repeats):
            c = child.uniform(-0.8, 0.8, size=int(D))
            fun = ysyn(c)
            direct = direct_rows(
                1,
                lower,
                upper,
                _one_row(fun),
                max_evaluations=max_evaluations,
                max_iterations=10**7,
                f_target=f_target,
            )
            per_method["DIRECT-L"].append(int(direct.n_evaluations[0]))
            counting = _until_target(fun, f_target)
            cobyla_rows(
                lower[None, :],
                upper[None, :],
                0.5 * (lower + upper)[None, :],
                _one_row(counting),
                max_evaluations=max_evaluations,
                rho_end=1e-8,
            )
            per_method["COBYLA"].append(counting.evaluations_at_target or counting.n)
        for name in counts:
            counts[name].append(float(np.mean(per_method[name])))
    return OptimizerScalingResult(
        dims=dims,
        evaluations={k: np.asarray(v) for k, v in counts.items()},
    )


def _one_row(fun) -> RowObjective:
    """``fun`` as a one-row search objective: each point scored in order."""
    return lambda X, segments: np.array([float(fun(x)) for x in X], dtype=float)


class _until_target:
    """Record the evaluation index at which the target was first reached."""

    def __init__(self, fun, target: float) -> None:
        self.fun = fun
        self.target = target
        self.n = 0
        self.evaluations_at_target: int | None = None

    def __call__(self, x):
        value = self.fun(x)
        self.n += 1
        if self.evaluations_at_target is None and value <= self.target:
            self.evaluations_at_target = self.n
        return value


# -- Fig. 3: a 2-D function with a 1-D effective subspace --------------------


@dataclass
class EmbeddingIllustration:
    """Series for the Fig. 3 illustration."""

    z: np.ndarray
    x_points: np.ndarray  # the 1-D embedding line mapped into 2-D
    y_along_embedding: np.ndarray
    y_optimum_2d: float
    y_optimum_embedded: float


def embedding_illustration(
    n_points: int = 201, seed: SeedLike = None
) -> EmbeddingIllustration:
    """A 2-D objective depending only on ``x_1``, searched along a random
    1-D embedding: the embedded line attains the true optimum (Fig. 3)."""

    def objective(x) -> float:
        return float((x[0] - 0.3) ** 2)  # depends on x1 only; optimum 0

    embedding = RandomEmbedding(2, 1, seed=seed)
    z_lo, z_hi = embedding.z_bounds()[0]
    z = np.linspace(z_lo, z_hi, n_points)
    x_points = embedding.to_original(z[:, None])
    values = np.array([objective(x) for x in x_points])
    return EmbeddingIllustration(
        z=z,
        x_points=x_points,
        y_along_embedding=values,
        y_optimum_2d=0.0,
        y_optimum_embedded=float(values.min()),
    )


# -- Fig. 6: normalized MSE vs embedding dimension ---------------------------


@dataclass
class DimensionSelectionCurve:
    """One Fig. 6 curve: normalized averaged MSE per candidate dimension."""

    label: str
    dims: np.ndarray
    normalized_mse: np.ndarray
    selected_dim: int


def dimension_selection_curve(
    testbench: CircuitTestbench,
    spec_name: str,
    cfg: ExperimentConfig,
    dims=None,
    n_init: int | None = None,
    seed: SeedLike = None,
) -> DimensionSelectionCurve:
    """Run Algorithm 2 for one spec and return its Fig. 6 curve.

    Uses ``cfg.n_init`` samples (5 for the UVLO, 50 for the LDO, as in the
    paper's Section 5.2) unless ``n_init`` overrides it.
    """
    from repro.bo.engine import uniform_initial_design

    rng = as_generator(seed if seed is not None else cfg.seed)
    objective = testbench.objective(spec_name)
    n = n_init if n_init is not None else cfg.n_init
    X = uniform_initial_design(testbench.bounds(), n, seed=rng)
    y = objective.evaluate(X)
    if dims is None:
        D = testbench.dim
        dims = [d for d in (1, 2, 4, 6, 8, 10, 12, 16, 20, 25, 30, 40, 50, D) if d <= D]
    result = select_embedding_dimension(
        X, y, dims=dims, n_trials=cfg.dimension_trials, seed=rng
    )
    return DimensionSelectionCurve(
        label=f"{type(testbench).__name__}/{spec_name}",
        dims=result.dims,
        normalized_mse=result.normalized_mse,
        selected_dim=result.selected_dim,
    )
