"""DC sweep of an independent source, with operating-point continuation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.circuits.mna.dc import operating_points
from repro.circuits.mna.elements import VoltageSource
from repro.circuits.mna.netlist import Circuit
from repro.circuits.mna.stack import CircuitStack


@dataclass
class SweepResult:
    """All operating points of a DC sweep."""

    circuit: Circuit
    values: np.ndarray
    states: np.ndarray  # (n_points, circuit.size)

    def voltage(self, node: str) -> np.ndarray:
        idx = self.circuit.node(node)
        if idx < 0:
            return np.zeros(self.values.shape[0])
        return self.states[:, idx]


def sweep_source_stack(
    circuits: Sequence[Circuit],
    sources: Sequence[VoltageSource],
    values,
    **solve_kwargs,
) -> list[SweepResult]:
    """Sweep each circuit's ``sources[k]`` over ``values``, as one stack.

    Every sweep point solves all circuits' operating points together, each
    warm-started from its own previous point; each row's result equals
    :func:`sweep_source` of that circuit alone.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    if len(sources) != len(circuits):
        raise ValueError(
            f"one source per circuit: {len(sources)} for {len(circuits)}"
        )
    stack = CircuitStack(circuits)
    originals = [source.value for source in sources]
    states = np.empty((len(stack), values.size, stack.size))
    x_prev: np.ndarray | None = None
    try:
        for i, value in enumerate(values):
            for source in sources:
                source.value = float(value)
            x_prev = operating_points(stack, x_prev, **solve_kwargs)[0]
            states[:, i] = x_prev
    finally:
        for source, original in zip(sources, originals):
            source.value = original
    return [
        SweepResult(circuit, values.copy(), states[k])
        for k, circuit in enumerate(stack.circuits)
    ]


def sweep_source(
    circuit: Circuit,
    source: VoltageSource,
    values,
    **solve_kwargs,
) -> SweepResult:
    """Sweep ``source`` over ``values``, warm-starting each point.

    Warm starting from the previous operating point both speeds the solve
    and tracks the correct branch through hysteretic regions (sweeping up
    versus down a Schmitt-trigger input lands on different states, which is
    exactly how the UVLO thresholds are measured).
    """
    return sweep_source_stack([circuit], [source], values, **solve_kwargs)[0]
