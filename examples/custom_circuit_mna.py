"""Verify a transistor-level circuit simulated with the built-in MNA engine.

Shows the full "real simulator" code path: build a netlist, measure a
performance with DC sweeps / transients, expose it as a cache-addressable
runtime objective (:func:`~repro.circuits.mna.ldo_demo_objective`), and
hunt worst-case variations with the proposed method.

The circuit is the built-in MNA low-dropout-regulator demo (9 variation
parameters); the verified spec is its load regulation.  Each simulation is
a pair of Newton DC solves, so budgets are kept small.

Run:  python examples/custom_circuit_mna.py
"""

import numpy as np

from repro.bo import RemboBO, RunSpec, Specification, uniform_initial_design
from repro.circuits.mna import ldo_demo_objective
from repro.circuits.mna.ldo_demo import LDODemo
from repro.utils import format_duration
from repro.utils.timing import Timer


def main() -> None:
    nominal = LDODemo()
    print("MNA LDO demo at nominal corner:")
    print(f"  vout            = {nominal.output_voltage():.3f} V")
    print(f"  quiescent curr. = {1e3 * nominal.quiescent_current():.3f} mA")
    print(f"  load regulation = {nominal.load_regulation():.2f} %")

    spec = Specification(
        "load regulation", threshold=0.22, failure_when="above", units="%"
    )
    objective = ldo_demo_objective("load_regulation", spec=spec)

    with Timer() as timer:
        X0 = uniform_initial_design(objective.bounds, n_init=8, seed=3)
        y0 = objective.evaluate(X0)
        engine = RemboBO(batch_size=4, embedding_dim=4, seed=5)
        result = engine.solve(
            objective=objective,
            spec=RunSpec(
                n_batches=4,
                threshold=spec.minimization_threshold,
                initial_data=(X0, y0),
            ),
        )
    summary = result.summarize(spec.minimization_threshold)
    worst = spec.from_minimization(result.best_y)
    print(
        f"\nworst-case load regulation over {result.n_evaluations} MNA "
        f"simulations: {worst:.2f} % (spec {spec.threshold} %)"
    )
    print(f"failures found: {summary.n_failures}; wall time {format_duration(timer.elapsed)}")
    print("worst variation vector:", np.array2string(result.best_x, precision=2))


if __name__ == "__main__":
    main()
