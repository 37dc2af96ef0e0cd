"""Fixed-step transient analysis (backward Euler) with Newton per step.

Backward Euler is unconditionally stable and free of trapezoidal ringing,
which suits the stiff, strongly-nonlinear step responses (load steps on a
regulator, supply ramps on a UVLO) the testbenches exercise.  Accuracy is
controlled by the step size.  Each step is a Newton solve of the circuit as
a stack of one, with the same loop and assembly the DC solver uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.mna.dc import ConvergenceError, operating_points
from repro.circuits.mna.netlist import Circuit
from repro.circuits.mna.stack import CircuitStack, newton


@dataclass
class TransientResult:
    """Waveforms of a transient run."""

    circuit: Circuit
    time: np.ndarray
    states: np.ndarray  # (n_steps + 1, circuit.size)

    def voltage(self, node: str) -> np.ndarray:
        """The full waveform of one node voltage."""
        idx = self.circuit.node(node)
        if idx < 0:
            return np.zeros(self.time.shape[0])
        return self.states[:, idx]


def solve_transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    x0: np.ndarray | None = None,
    max_iterations: int = 100,
    v_tol: float = 1e-7,
    damping: float = 1.0,
) -> TransientResult:
    """Integrate from a DC operating point (or ``x0``) to ``t_stop``.

    The initial condition defaults to the DC solution at ``t = 0`` (with
    time-varying sources evaluated at zero).  On a non-convergent step the
    step is retried at half size up to four times before raising.
    """
    if t_stop <= 0 or dt <= 0:
        raise ValueError("t_stop and dt must be positive")
    stack = CircuitStack([circuit])
    if x0 is None:
        x0 = operating_points(stack)[0][0]

    times = [0.0]
    states = [x0.copy()]
    t = 0.0
    x = x0.copy()
    while t < t_stop - 1e-15:
        sub = min(dt, t_stop - t)
        for _ in range(5):
            x_next, iterations = newton(
                stack,
                x[None, :],
                max_iterations=max_iterations,
                v_tol=v_tol,
                damping=damping,
                time=t + sub,
                dt=sub,
                x_prev=x[None, :],
            )
            if iterations[0]:
                break
            sub *= 0.5
        else:
            raise ConvergenceError(
                f"transient step failed at t={t:.3e} for {circuit!r}"
            )
        t += sub
        x = x_next[0]
        times.append(t)
        states.append(x.copy())
    return TransientResult(circuit, np.asarray(times), np.asarray(states))
