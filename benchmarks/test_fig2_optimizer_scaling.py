"""Fig. 2 reproduction: function evaluations per optimization versus D.

The paper optimizes ``y_syn(x) = ‖x − c‖₂/‖c‖₂`` (Eq. 10) with DIRECT_L
and COBYLA and shows that the evaluations needed per optimization grow
super-linearly with the dimension — the Section 3 motivation for dimension
reduction.  This bench regenerates the two series and asserts the shape.
"""

from benchmarks.conftest import run_once
from repro.experiments import optimizer_scaling
from repro.utils import render_table

DIMS = (2, 5, 10, 20, 40, 60)


def test_fig2_optimizer_scaling(benchmark):
    result = run_once(
        benchmark,
        lambda: optimizer_scaling(
            dims=DIMS,
            n_repeats=3,
            f_target=0.1,
            max_evaluations=300_000,
            seed=42,
        ),
    )
    rows = []
    for i, d in enumerate(result.dims):
        rows.append(
            [
                d,
                int(result.evaluations["DIRECT-L"][i]),
                int(result.evaluations["COBYLA"][i]),
            ]
        )
    print()
    print(
        render_table(
            ["D", "DIRECT-L evals", "COBYLA evals"],
            rows,
            title="Fig. 2 — evaluations per optimization of y_syn (Eq. 10)",
        )
    )

    for name, counts in result.evaluations.items():
        # super-linear growth: going 2 -> 60 dims costs far more than 30x
        growth = counts[-1] / max(counts[0], 1.0)
        dim_ratio = DIMS[-1] / DIMS[0]
        assert growth > dim_ratio, (
            f"{name}: evaluation growth {growth:.1f}x is not super-linear "
            f"in dimension ({dim_ratio:.0f}x)"
        )
        # and the counts are non-trivially increasing along the sweep
        assert counts[-1] > counts[1] > 0
