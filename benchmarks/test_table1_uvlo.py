"""Table 1 reproduction: UVLO failure detection, 19 dimensions.

Runs the paper's seven methods (MC, SSS, EI, PI, LCB, pBO, proposed) with
the paper's BO budgets (5 init + 95 sequential / 5×19 batches) and prints
the table in the paper's layout.  MC/SSS budgets scale with
``REPRO_BENCH_SCALE`` (1.0 = the paper's 20 000 / ~1 000).

What the bench asserts, at the one seed ``TABLE1_SEED`` (2019): the
proposed method detects a failure, with a worst case beyond the 0.9 V
spec, and MC and SSS detect none.  Full-D BO (EI, PI, LCB, pBO) is only
reported: the bench prints which of them detected and asserts nothing
about them.  One seed is not a detection rate; the proposed method's
detection is seed-dependent (EXPERIMENTS.md, "Multi-seed robustness").
"""

from benchmarks.conftest import run_once
from repro.circuits.behavioral import UVLOTestbench
from repro.experiments import format_table, run_table, uvlo_config

#: Harness seed for the headline single-run table (the hunt is stochastic;
#: multi-seed statistics are reported in EXPERIMENTS.md).
TABLE1_SEED = 2019


def test_table1_uvlo(benchmark, bench_scale):
    tb = UVLOTestbench()
    cfg = uvlo_config(seed=TABLE1_SEED).scaled(bench_scale)
    table = run_once(benchmark, lambda: run_table(tb, cfg, keep_results=False))
    print()
    print(format_table(table, title="Table 1 — UVLO (19 dimensions)"))

    ours = table.row("delta_vthl", "This work").summary
    assert ours.detected, "the proposed method must detect UVLO failures"
    # the proposed method's worst case is beyond the spec
    assert -ours.worst_value > 0.9
    # the pure-sampling baselines never find the ~1e-7-rate failure
    for baseline in ("MC", "SSS"):
        summary = table.row("delta_vthl", baseline).summary
        assert not summary.detected, f"{baseline} unexpectedly found a failure"
    # full-D BO baselines: reported, not asserted — with modern GP/optimizer
    # machinery at equal budgets their detection is seed-dependent (see
    # EXPERIMENTS.md "reproduction nuances"); the paper's 2019 baselines
    # found nothing
    detected = [
        m for m in ("EI", "PI", "LCB", "pBO")
        if table.row("delta_vthl", m).summary.detected
    ]
    print(f"\nfull-D BO baselines that also detected a failure: {detected or 'none'}")
