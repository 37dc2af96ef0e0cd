"""Embedding-dimension selection study (paper Fig. 6 / Algorithm 2).

Runs the proposed dimension-selection procedure on both circuit
testbenches and on a synthetic function with a *known* effective
dimension, printing the normalized-MSE curves the paper plots in Fig. 6.

Run:  python examples/dimension_selection_study.py
"""

import numpy as np

from repro.bo import uniform_initial_design
from repro.circuits.behavioral import LDOTestbench, UVLOTestbench
from repro.embedding import select_embedding_dimension
from repro.synthetic import EmbeddedFunction, sphere
from repro.utils import render_table


def curve(label, X, y, dims, seed):
    result = select_embedding_dimension(X, y, dims=dims, n_trials=4, seed=seed)
    print(f"\n{label} (selected d = {result.selected_dim}):")
    bar_width = 40
    rows = []
    for d, mse in zip(result.dims, result.normalized_mse):
        rows.append([d, f"{mse:.3f}", "#" * int(round(bar_width * mse))])
    print(render_table(["d", "norm. MSE", ""], rows))
    return result


def main() -> None:
    # synthetic sanity check: effective dimension is exactly 3
    fun = EmbeddedFunction(sphere, total_dim=16, effective_dim=3, scale=2.0, seed=0)
    X = uniform_initial_design(np.column_stack([-np.ones(16), np.ones(16)]), 40, seed=0)
    y = np.array([fun(x) for x in X])
    curve("synthetic (true d_e = 3)", X, y, dims=[1, 2, 3, 4, 6, 8, 12, 16], seed=0)

    # UVLO with the paper's 5 initial samples (Section 5.2)
    uvlo = UVLOTestbench()
    X = uniform_initial_design(uvlo.bounds(), 5, seed=1)
    y = uvlo.objective("delta_vthl").evaluate(X)
    curve("UVLO |ΔV_THL| (5 samples)", X, y, dims=[1, 2, 4, 6, 8, 12, 16, 19], seed=1)

    # LDO with the paper's 50 initial samples, one curve per spec
    ldo = LDOTestbench()
    X = uniform_initial_design(ldo.bounds(), 50, seed=2)
    for spec in ldo.PERFORMANCES:
        y = ldo.objective(spec).evaluate(X)
        curve(
            f"LDO {spec} (50 samples)",
            X,
            y,
            dims=[1, 2, 4, 8, 12, 16, 20, 25, 30, 40, 50, 60],
            seed=2,
        )


if __name__ == "__main__":
    main()
