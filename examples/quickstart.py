"""Quickstart: detect a rare failure of a synthetic high-dimensional circuit.

Builds a 20-dimensional objective with a 3-dimensional effective subspace
and a rare low-value pocket, then runs the paper's full pipeline through
the :class:`~repro.campaign.Campaign` facade:

1. collect a small initial dataset,
2. select an embedding dimension with Algorithm 2,
3. run random-embedding batch BO (Algorithm 1) to hunt the failure,
   with telemetry tracing every phase,
4. compare with plain Monte Carlo at the same budget.

Run:  python examples/quickstart.py
The trace lands in quickstart.trace.jsonl; inspect it with
``python -m repro.telemetry.report quickstart.trace.jsonl``.
"""

from repro.bo import RemboBO, RunSpec, uniform_initial_design
from repro.campaign import Campaign
from repro.embedding import select_embedding_dimension
from repro.runtime import FunctionObjective
from repro.sampling import MonteCarloSampler
from repro.synthetic import RareFailureFunction
from repro.telemetry import TelemetryConfig
from repro.utils import render_table, unit_cube_bounds

SEED = 2
D, EFFECTIVE_DIM = 20, 3
TRACE_PATH = "quickstart.trace.jsonl"


def main() -> None:
    # a black-box "circuit": 20 variation parameters, 3 of which (after a
    # hidden rotation) matter; failures are y < -1 in a narrow pocket
    circuit = RareFailureFunction(
        total_dim=D,
        effective_dim=EFFECTIVE_DIM,
        threshold=-1.2,
        depth=3.0,
        radius=0.3,
        seed=11,
    )
    bounds = unit_cube_bounds(D)
    # every evaluation flows through the runtime's Objective protocol
    objective = FunctionObjective(
        circuit, dim=D, bounds=bounds, cache_key="rare-failure-quickstart"
    )

    # step 1: a shared initial dataset (the paper's D_0)
    X0 = uniform_initial_design(bounds, n_init=25, seed=SEED)
    y0 = objective.evaluate(X0)
    print(f"initial dataset: {len(y0)} simulations, best value {y0.min():+.3f}")

    # step 2: Algorithm 2 — embedding dimension from the initial data
    selection = select_embedding_dimension(
        X0, y0, dims=[1, 2, 3, 4, 6, 8, 12], n_trials=5, seed=SEED
    )
    print("\nAlgorithm 2 (embedding dimension selection):")
    print(
        render_table(
            ["d", "normalized MSE"],
            [
                [d, f"{m:.3f}"]
                for d, m in zip(selection.dims, selection.normalized_mse)
            ],
        )
    )
    print(f"selected embedding dimension: d = {selection.selected_dim}")

    # step 3: Algorithm 1 — REMBO batch BO failure hunting via Campaign,
    # with a trace of every phase (gp_fit / acq_opt / evaluate spans)
    campaign = Campaign(
        objective,
        RemboBO(
            batch_size=5,
            embedding_dim=max(selection.selected_dim, EFFECTIVE_DIM + 1),
            seed=SEED,
        ),
        telemetry=TelemetryConfig(trace_path=TRACE_PATH),
    )
    outcome = campaign.run(
        RunSpec(
            bounds=bounds,
            n_batches=8,
            threshold=circuit.threshold,
            initial_data=(X0, y0),
        )
    )
    result = outcome.run
    summary = result.summarize(circuit.threshold)
    print(
        f"\nproposed method: {result.n_evaluations} simulations, "
        f"worst value {result.best_y:+.3f}, "
        f"{summary.n_failures} failures"
        + (
            f", first at simulation #{summary.first_failure_index}"
            if summary.detected
            else ""
        )
    )
    counters = outcome.metrics["counters"]
    print(
        f"telemetry: {counters.get('evaluations.completed', 0)} simulations "
        f"traced -> {outcome.trace_path} "
        f"(python -m repro.telemetry.report {outcome.trace_path})"
    )

    # step 4: Monte Carlo at the same budget misses the pocket
    mc_campaign = Campaign(
        objective, MonteCarloSampler(result.n_evaluations, seed=SEED)
    )
    mc = mc_campaign.run(
        RunSpec(bounds=bounds, threshold=circuit.threshold)
    ).run
    mc_summary = mc.summarize(circuit.threshold)
    print(
        f"Monte Carlo     : {mc.n_evaluations} simulations, "
        f"worst value {mc.best_y:+.3f}, {mc_summary.n_failures} failures"
    )

    if summary.detected and not mc_summary.detected:
        print("\n=> the embedded BO found the rare failure; plain MC did not.")


if __name__ == "__main__":
    main()
