"""Nonlinear DC operating-point solver: damped Newton with continuation.

The solve ladder mirrors SPICE practice:

1. plain Newton-Raphson with per-iteration voltage-step damping,
2. gmin stepping — solve with a large shunt conductance to ground on every
   node, then relax it geometrically, warm-starting each stage,
3. source stepping — ramp all independent sources from zero.

Convergence is declared on the voltage update norm alone: a Newton solve
converges once its largest node-voltage update falls below ``v_tol``.

Every entry point works on a :class:`~repro.circuits.mna.stack.
CircuitStack`: the rows of a stack run each stage in lockstep, a row that
fails plain Newton climbs the ladder with the other failed rows, and a
single circuit is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.circuits.mna.netlist import Circuit
from repro.circuits.mna.stack import CircuitStack, newton


class ConvergenceError(RuntimeError):
    """Raised when every continuation strategy fails to converge."""


@dataclass
class DCSolution:
    """A converged operating point."""

    circuit: Circuit
    x: np.ndarray
    iterations: int
    strategy: str

    def voltage(self, node: str) -> float:
        return self.circuit.voltage(self.x, node)

    def branch_current(self, element) -> float:
        """Branch current of a voltage-source-like element."""
        if element.branch is None:
            raise ValueError(f"{element.name} has no branch current")
        return float(self.x[self.circuit.n_nodes + element.branch])


def operating_points(
    stack: CircuitStack,
    x0: np.ndarray | None = None,
    max_iterations: int = 150,
    v_tol: float = 1e-9,
    damping: float = 0.6,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The DC operating point of every row of ``stack``.

    ``x0`` ``(K, size)`` warm-starts plain Newton and gmin stepping (zeros
    when None).  Returns ``(x, iterations, strategies)`` per row.  Raises
    :class:`ConvergenceError` if any row fails plain Newton, gmin stepping
    and source stepping.
    """
    solve = dict(max_iterations=max_iterations, v_tol=v_tol, damping=damping)
    if x0 is None:
        x0 = np.zeros((len(stack), stack.size))
    x, iterations = newton(stack, x0, **solve)
    strategies = ["newton"] * len(stack)
    failed = np.flatnonzero(iterations == 0)
    if failed.size == 0:
        return x, iterations, strategies

    # gmin stepping: relax a global shunt from strong to negligible
    rows = failed
    x_rows = x0[rows].copy()
    total = np.zeros(rows.size, dtype=int)
    for gmin in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 0.0):
        x_stage, stage = newton(stack.take(rows), x_rows, gmin=gmin, **solve)
        ok = stage > 0
        rows, x_rows, total = rows[ok], x_stage[ok], total[ok] + stage[ok]
        if rows.size == 0:
            break
    x[rows], iterations[rows] = x_rows, total
    for row in rows:
        strategies[row] = "gmin-stepping"

    # source stepping: ramp the independent sources from zero
    rows = np.setdiff1d(failed, rows)
    if rows.size == 0:
        return x, iterations, strategies
    sub = stack.take(rows)
    x_rows = np.zeros((rows.size, stack.size))
    total = np.zeros(rows.size, dtype=int)
    for scale in np.linspace(0.1, 1.0, 10):
        x_rows, stage = newton(sub, x_rows, source_scale=float(scale), **solve)
        if not stage.all():
            circuit = sub.circuits[int(np.argmin(stage > 0))]
            raise ConvergenceError(
                f"DC solve failed for {circuit!r} at source scale {scale:.2f}"
            )
        total += stage
    x[rows], iterations[rows] = x_rows, total
    for row in rows:
        strategies[row] = "source-stepping"
    return x, iterations, strategies


def solve_dc_stack(
    circuits: Sequence[Circuit],
    x0: np.ndarray | None = None,
    max_iterations: int = 150,
    v_tol: float = 1e-9,
    damping: float = 0.6,
) -> list[DCSolution]:
    """DC operating points of same-topology circuits, solved as one stack.

    Each row's solution equals :func:`solve_dc` of that circuit alone.
    Raises :class:`ConvergenceError` if any row fails every strategy.
    """
    stack = CircuitStack(circuits)
    if x0 is not None and x0.shape != (len(stack), stack.size):
        raise ValueError(
            f"x0 must have shape ({len(stack)}, {stack.size}), got {x0.shape}"
        )
    x, iterations, strategies = operating_points(
        stack, x0, max_iterations, v_tol, damping
    )
    return [
        DCSolution(circuit, x[k], int(iterations[k]), strategies[k])
        for k, circuit in enumerate(stack.circuits)
    ]


def solve_dc(
    circuit: Circuit,
    x0: np.ndarray | None = None,
    max_iterations: int = 150,
    v_tol: float = 1e-9,
    damping: float = 0.6,
) -> DCSolution:
    """Find the DC operating point, escalating through continuation.

    Raises :class:`ConvergenceError` if plain Newton, gmin stepping and
    source stepping all fail.
    """
    size = circuit.size
    if x0 is not None:
        if x0.shape != (size,):
            raise ValueError(f"x0 must have shape ({size},), got {x0.shape}")
        x0 = x0[None, :]
    return solve_dc_stack([circuit], x0, max_iterations, v_tol, damping)[0]
