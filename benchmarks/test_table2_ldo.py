"""Table 2 reproduction: LDO verification, 60 dimensions, three specs.

Runs the paper's method set with the paper's BO budgets (50 init + 350
sequential / 5×70 batches) on all three specs (quiescent current,
undershoot, load regulation).  MC/SSS budgets scale with
``REPRO_BENCH_SCALE``.  The default run is MC, SSS, pBO and the proposed
method; the sequential EI/PI/LCB runs are the slow rows, added by
``REPRO_BENCH_FULL=1``.

What the bench asserts, at the one seed ``TABLE2_SEED`` (2019): MC and
SSS detect no failure on any spec, and at least one of the BO methods
run detects a failure on at least two of the three specs.  Which BO
method detects on which spec is printed, not asserted; on this substrate
full-D pBO is the stronger detector on the LDO (EXPERIMENTS.md).
"""

from benchmarks.conftest import run_once
from repro.circuits.behavioral import LDOTestbench
from repro.experiments import format_table, ldo_config, run_table

TABLE2_SEED = 2019


def test_table2_ldo(benchmark, bench_scale, bench_full):
    tb = LDOTestbench()
    cfg = ldo_config(seed=TABLE2_SEED).scaled(bench_scale)
    methods = (
        ("MC", "SSS", "EI", "PI", "LCB", "pBO", "This work")
        if bench_full
        else ("MC", "SSS", "pBO", "This work")
    )
    table = run_once(
        benchmark, lambda: run_table(tb, cfg, methods=methods, verbose=True)
    )
    print()
    print(format_table(table, title="Table 2 — LDO (60 dimensions)"))

    bo_methods = [m for m in methods if m not in ("MC", "SSS")]
    detected_by_bo = {
        spec: [m for m in bo_methods if table.row(spec, m).summary.detected]
        for spec in tb.PERFORMANCES
    }
    print("\nBO detections per spec:")
    for spec, who in detected_by_bo.items():
        print(f"  {spec}: {who or 'none'}")
    for spec in tb.PERFORMANCES:
        # pure-sampling baselines never find the ~1e-7-rate failures, even
        # with orders of magnitude more simulations than the BO methods
        for baseline in ("MC", "SSS"):
            summary = table.row(spec, baseline).summary
            assert not summary.detected, (
                f"{baseline} unexpectedly found a {spec} failure"
            )
    # the robust paper-shape on this substrate: model-based sequential
    # design detects rare failures that sampling misses, on most specs.
    # Which BO variant wins per spec is seed-dependent on our behavioral
    # substrate (EXPERIMENTS.md, "reproduction nuances"): the proposed
    # method dominates the 19-D UVLO bench, while on the 60-D LDO our
    # modern full-D pBO baseline is the stronger detector.
    assert sum(1 for who in detected_by_bo.values() if who) >= 2
