"""Fig. 6 reproduction: embedding-dimension selection curves (Algorithm 2).

The paper runs Algorithm 2 with 5 initial samples for the UVLO and 50 for
the LDO, plots min-max-normalized averaged GP MSE versus the candidate
embedding dimension, and picks d̃ where the curve flattens (d̃=8 for the
UVLO, d̃=30 for the LDO).  The *shape* to reproduce: high MSE at tiny d,
flattening somewhere well below the full dimensionality.
"""

from benchmarks.conftest import run_once
from repro.circuits.behavioral import LDOTestbench, UVLOTestbench
from repro.experiments import dimension_selection_curve, ldo_config, uvlo_config
from repro.utils import render_table


def _print_curve(curve):
    width = 40
    rows = [
        [d, f"{m:.3f}", "#" * int(round(width * m))]
        for d, m in zip(curve.dims, curve.normalized_mse)
    ]
    print()
    print(render_table(["d", "norm MSE", ""], rows, title=f"Fig. 6 — {curve.label}"))
    print(f"selected d̃ = {curve.selected_dim}")


def test_fig6_uvlo_curve(benchmark):
    tb = UVLOTestbench()
    cfg = uvlo_config()
    curve = run_once(
        benchmark,
        lambda: dimension_selection_curve(
            tb, "delta_vthl", cfg, dims=[1, 2, 4, 6, 8, 12, 16, 19], seed=7
        ),
    )
    _print_curve(curve)
    # flattening below the full dimension: the pick compresses the space
    assert curve.selected_dim < 19
    assert curve.normalized_mse[0] == max(curve.normalized_mse)


def test_fig6_ldo_curves(benchmark):
    tb = LDOTestbench()
    cfg = ldo_config()
    dims = [1, 2, 4, 8, 12, 16, 20, 25, 30, 40, 50, 60]

    def run_all():
        return [
            dimension_selection_curve(tb, spec, cfg, dims=dims, seed=17)
            for spec in tb.PERFORMANCES
        ]

    curves = run_once(benchmark, run_all)
    for curve in curves:
        _print_curve(curve)
        assert curve.selected_dim < 60
        # MSE at d=1 is far from the flat level
        assert curve.normalized_mse[0] > 0.5
