"""Table 1 / Table 2 reproduction: run every method, render paper rows.

``run_table`` executes the full method set of the paper against every
spec of a testbench and returns structured rows; ``format_table`` renders
them in the paper's column layout (Spec, Target, Method, # Sim, Worst
Case, 1st Failure Hit, Runtime).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bo.records import FailureSummary, RunResult
from repro.circuits.behavioral.base import CircuitTestbench
from repro.experiments.config import ExperimentConfig
from repro.experiments.methods import METHOD_ORDER, run_method, shared_initial_data
from repro.runtime.broker import RuntimePolicy
from repro.utils.tables import format_count, format_sim_budget, render_table
from repro.utils.timing import format_duration


@dataclass
class TableRow:
    """One (spec, method) cell group of a results table."""

    spec_name: str
    target: str
    method: str
    sim_budget: str
    worst_case: str
    first_failure: str
    runtime: str
    summary: FailureSummary
    result: RunResult | None = None


@dataclass
class TableResult:
    """A completed table reproduction."""

    testbench_name: str
    rows: list[TableRow] = field(default_factory=list)

    def row(self, spec_name: str, method: str) -> TableRow:
        for row in self.rows:
            if row.spec_name == spec_name and row.method == method:
                return row
        raise KeyError(f"no row for ({spec_name!r}, {method!r})")

    def detected(self, spec_name: str, method: str) -> bool:
        return self.row(spec_name, method).summary.detected


def _sim_budget_label(method: str, cfg: ExperimentConfig, n_sims: int) -> str:
    if method in ("MC", "SSS"):
        return format_count(n_sims)
    if method in ("EI", "PI", "LCB"):
        return format_sim_budget(cfg.n_init, cfg.n_sequential)
    return format_sim_budget(
        cfg.n_init, cfg.batch_size * cfg.n_batches, batch=cfg.batch_size
    )


def run_table(
    testbench: CircuitTestbench,
    cfg: ExperimentConfig,
    methods=METHOD_ORDER,
    specs: list[str] | None = None,
    keep_results: bool = False,
    verbose: bool = False,
    runtime: RuntimePolicy | None = None,
) -> TableResult:
    """Run ``methods`` × ``specs`` at ``cfg.seed`` and collect paper rows.

    Every spec's initial design is simulated first; then each cell runs,
    one after another, from its spec's shared design, as in the paper.
    ``runtime`` threads a shared :class:`RuntimePolicy` through every
    cell, so a cache in it deduplicates designs across methods.
    """
    spec_names = specs if specs is not None else list(testbench.specs)
    table = TableResult(testbench_name=type(testbench).__name__)
    inits = {
        spec_name: shared_initial_data(testbench, spec_name, cfg, runtime=runtime)
        for spec_name in spec_names
    }

    for spec_name in spec_names:
        spec = testbench.specs[spec_name]
        for method in methods:
            result = run_method(
                method, testbench, spec_name, cfg,
                initial_data=inits[spec_name], runtime=runtime,
            )
            result.method = method
            summary = result.summarize(testbench.threshold(spec_name))
            summary.method = method
            row = TableRow(
                spec_name=spec_name,
                target=f"{spec.threshold:g}{spec.units}",
                method=method,
                sim_budget=_sim_budget_label(method, cfg, result.n_evaluations),
                worst_case=spec.format_value(result.best_y),
                first_failure=(
                    str(summary.first_failure_index)
                    if summary.detected
                    else "-"
                ),
                runtime=format_duration(result.total_seconds),
                summary=summary,
                result=result if keep_results else None,
            )
            table.rows.append(row)
            if verbose:
                print(
                    f"[{table.testbench_name}/{spec_name}] {method}: "
                    f"worst={row.worst_case} first={row.first_failure} "
                    f"({row.runtime})"
                )
    return table


def format_table(table: TableResult, title: str | None = None) -> str:
    """Render in the paper's Tables 1-2 layout."""
    headers = [
        "Spec",
        "Target",
        "Method",
        "# Sim",
        "Worst Case",
        "1st Failure Hit",
        "Runtime",
    ]
    rows = [
        [
            row.spec_name,
            row.target,
            row.method,
            row.sim_budget,
            row.worst_case,
            row.first_failure,
            row.runtime,
        ]
        for row in table.rows
    ]
    return render_table(headers, rows, title=title or table.testbench_name)
