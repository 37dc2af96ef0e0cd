"""Lockstep assembly and Newton solves of same-topology netlists.

A :class:`CircuitStack` holds ``K`` circuits that share one topology and
differ only in element values — the rows of one objective chunk, or a
single circuit as a stack of one.  The topology is compiled once into a
contribution layout: one *slot* per entry of the augmented system
``[G | rhs]`` an element adds to, in netlist order (the gmin shunts first,
then each element in the order the circuit lists it, each in its own fixed
order).  :meth:`CircuitStack.assemble` fills every row's slot values and
sums them into entries with one ``bincount``, which adds each entry's
contributions in slot order — so each row's system equals, bit for bit,
the one its elements would stamp one after another.  Ground maps to an
extra row and column that is dropped, so a MOSFET whose drain and source
swap roles only changes slot indices.

:func:`newton` is the one damped Newton loop: DC operating points, sweeps
and transient steps all call it.  Each iteration assembles every live row
and solves them all with one batched ``np.linalg.solve``; rows freeze as
they converge or fail, and a singular row fails alone.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

import numpy as np

from repro.circuits.mna.elements import (
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Diode,
    Resistor,
    VoltageSource,
    evaluate_waveform,
)
from repro.circuits.mna.mosfet import MOSFET, level1_current
from repro.circuits.mna.netlist import Circuit

#: Element types the assembly knows, with their terminal counts.
_TERMINALS = {
    Resistor: 2,
    Capacitor: 2,
    VoltageSource: 2,
    CurrentSource: 2,
    VCVS: 4,
    VCCS: 4,
    Diode: 2,
    MOSFET: 3,
}

# Slot value patterns.  Multiplying by ±1.0 is exact, so ``g * _CONDUCTANCE``
# holds exactly the values ``g, g, -g, -g`` a conductance stamps.
_CONDUCTANCE = np.array([1.0, 1.0, -1.0, -1.0])  # (a,a) (b,b) (a,b) (b,a)
_TRANSCONDUCTANCE = np.array([1.0, -1.0, -1.0, 1.0])  # (p,cp) (p,cn) (m,cp) (m,cn)
_INJECTION = np.array([-1.0, 1.0])  # a current leaving the first terminal


def _conductance(a: int, b: int) -> list[tuple[int, int]]:
    return [(a, a), (b, b), (a, b), (b, a)]


def _topology(circuit: Circuit) -> tuple:
    elements = []
    for element in circuit.elements:
        kind = type(element)
        if kind not in _TERMINALS:
            raise TypeError(f"{element!r}: no MNA model for {kind.__name__}")
        polarity = element.sign if kind is MOSFET else None
        elements.append((kind, element.nodes, element.branch, polarity))
    return tuple(circuit.node_names()), circuit.n_branches, tuple(elements)


class _Layout:
    """Where every contribution of one topology lands, compiled once.

    Entry ``(r, c)`` of the augmented ``(size + 1, size + 2)`` system
    ``[G | rhs]`` (ground is row and column ``size``, the right-hand side
    column ``size + 1``) is slot index ``r * stride + c``.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.n_nodes = circuit.n_nodes
        self.size = circuit.size
        ground = self.size
        rhs = self.size + 1
        self.stride = self.size + 2
        terminals = [
            [ground if n < 0 else n for n in element.nodes]
            for element in circuit.elements
        ]
        self.positions: dict[type, list[int]] = {kind: [] for kind in _TERMINALS}
        cols: dict[type, list[list[int]]] = {kind: [] for kind in _TERMINALS}
        # gmin shunts come first, as the per-element stamps added them
        entries = [(i, i) for i in range(self.n_nodes)]
        swapped: list[list[tuple[int, int]]] = []
        for position, element in enumerate(circuit.elements):
            kind = type(element)
            nodes = terminals[position]
            row = -1 if element.branch is None else self.n_nodes + element.branch
            if kind is Resistor:
                own = _conductance(*nodes)
            elif kind in (Capacitor, Diode):
                a, b = nodes
                own = _conductance(a, b) + [(a, rhs), (b, rhs)]
            elif kind is VoltageSource:
                p, m = nodes
                own = [(p, row), (row, p), (m, row), (row, m), (row, rhs)]
            elif kind is CurrentSource:
                own = [(n, rhs) for n in nodes]
            elif kind is VCVS:
                op, om, cp, cn = nodes
                own = [(op, row), (row, op), (om, row), (row, om), (row, cp), (row, cn)]
            elif kind is VCCS:
                op, om, cp, cn = nodes
                own = [(op, cp), (op, cn), (om, cp), (om, cn)]
            else:
                # transconductance gm from the gate, channel conductance gds,
                # then the companion current, on the effective drain and
                # source — which swap when the device conducts backwards
                d, g, s = nodes
                own, backwards = (
                    [(dd, g), (dd, ss), (ss, g), (ss, ss)]
                    + _conductance(dd, ss)
                    + [(dd, rhs), (ss, rhs)]
                    for dd, ss in ((d, s), (s, d))
                )
                swapped.append(backwards)
            self.positions[kind].append(position)
            cols[kind].append(list(range(len(entries), len(entries) + len(own))))
            entries.extend(own)
        self.slots = np.asarray(
            [r * self.stride + c for r, c in entries], dtype=np.intp
        )
        self.gmin_cols = np.arange(self.n_nodes)
        #: ``(elements, slots per element)`` slot columns of each type
        self.cols = {
            kind: np.asarray(v, dtype=np.intp).reshape(len(v), -1 if v else 0)
            for kind, v in cols.items()
        }
        #: MOSFET slots with drain and source swapped, like ``cols[MOSFET]``
        self.mos_swapped = np.asarray(
            [[r * self.stride + c for r, c in own] for own in swapped], dtype=np.intp
        ).reshape(-1, 10)
        self.mos_sign = np.asarray(
            [circuit.elements[p].sign for p in self.positions[MOSFET]], dtype=float
        )
        #: ``(terminals, elements)`` node indices of each element type
        self.nodes = {
            kind: np.asarray(
                [terminals[p] for p in self.positions[kind]], dtype=np.intp
            ).reshape(-1, count).T
            for kind, count in _TERMINALS.items()
        }


class CircuitStack:
    """Same-topology circuits compiled for lockstep assembly.

    Element values are read when the stack is built, except independent
    source values, which :meth:`contributions` reads at each call (a sweep
    changes them between solves).
    """

    def __init__(self, circuits: Sequence[Circuit]) -> None:
        circuits = tuple(circuits)
        if not circuits:
            raise ValueError("a CircuitStack needs at least one circuit")
        topology = _topology(circuits[0])
        for circuit in circuits[1:]:
            if _topology(circuit) != topology:
                raise ValueError(
                    f"{circuit!r} differs in topology from {circuits[0]!r}"
                )
        layout = self._layout = _Layout(circuits[0])
        n = len(circuits)

        def values(kind: type, read) -> np.ndarray:
            return np.asarray(
                [
                    [read(c.elements[p]) for p in layout.positions[kind]]
                    for c in circuits
                ],
                dtype=float,
            ).reshape(n, -1)

        # slots whose values never change (resistors, source incidence,
        # controlled sources); the others are filled per solve or iteration
        static = np.zeros((n, layout.slots.size))
        cols = layout.cols
        static[:, cols[Resistor].ravel()] = _pattern(
            1.0 / values(Resistor, lambda e: e.resistance), _CONDUCTANCE
        )
        static[:, cols[VoltageSource][:, :4].ravel()] = np.tile(
            _CONDUCTANCE, len(layout.positions[VoltageSource])
        )
        gain = values(VCVS, lambda e: e.gain)
        ones = np.ones_like(gain)
        static[:, cols[VCVS].ravel()] = np.stack(
            [ones, ones, -ones, -ones, -gain, gain], axis=-1
        ).reshape(n, -1)
        static[:, cols[VCCS].ravel()] = _pattern(
            values(VCCS, lambda e: e.gm), _TRANSCONDUCTANCE
        )
        self._bind(
            circuits,
            {
                "static": static,
                "capacitance": values(Capacitor, lambda e: e.capacitance),
                "i_s": values(Diode, lambda e: e.i_s),
                "n_vt": values(Diode, lambda e: e.n_vt),
                "v_limit": values(Diode, lambda e: e.v_crit + e.n_vt),
                "vth": values(MOSFET, lambda e: e.params.vth),
                "beta": values(MOSFET, lambda e: e.params.beta),
                "lambda_": values(MOSFET, lambda e: e.params.lambda_),
            },
        )

    def _bind(self, circuits: tuple, rows: dict[str, np.ndarray]) -> None:
        """Per-row state: parameters, and slot indices offset to each row's
        block of the flattened ``(K, size + 1, size + 2)`` system."""
        layout = self._layout
        self.circuits = circuits
        self._rows = rows
        # per-row level-1 parameters, as level1_current reads them
        self._mos = SimpleNamespace(
            vth=rows["vth"], beta=rows["beta"], lambda_=rows["lambda_"]
        )
        offset = np.arange(len(circuits)) * ((layout.size + 1) * layout.stride)
        self._index = layout.slots + offset[:, None]
        mos = layout.cols[MOSFET]
        self._mos_index = (
            layout.slots[mos] + offset[:, None, None],
            layout.mos_swapped + offset[:, None, None],
        )

    def __len__(self) -> int:
        return len(self.circuits)

    @property
    def n_nodes(self) -> int:
        return self._layout.n_nodes

    @property
    def size(self) -> int:
        return self._layout.size

    def take(self, rows: Sequence[int]) -> "CircuitStack":
        """The stack of the given rows, sharing the compiled layout."""
        rows = np.asarray(rows, dtype=np.intp)
        sub = object.__new__(CircuitStack)
        sub._layout = self._layout
        sub._bind(
            tuple(self.circuits[i] for i in rows),
            {name: value[rows] for name, value in self._rows.items()},
        )
        return sub

    def _sources(self, kind: type, time: float) -> np.ndarray:
        positions = self._layout.positions[kind]
        return np.asarray(
            [
                [evaluate_waveform(c.elements[p].value, time) for p in positions]
                for c in self.circuits
            ],
            dtype=float,
        )

    def contributions(
        self,
        time: float = 0.0,
        dt: float = 0.0,
        x_prev: np.ndarray | None = None,
        source_scale: float = 1.0,
        gmin: float = 0.0,
    ) -> np.ndarray:
        """Slot values that stay fixed through one Newton solve.

        Returns ``(K, slots)`` values.  ``dt > 0`` is a backward-Euler
        transient step from ``x_prev`` (capacitors are open otherwise);
        ``gmin`` shunts every node to ground; ``source_scale`` multiplies
        every independent source, evaluated at ``time``.
        :meth:`assemble` fills in the nonlinear slots.
        """
        layout = self._layout
        cols = layout.cols
        values = self._rows["static"].copy()
        if gmin > 0.0:
            values[:, layout.gmin_cols] = gmin
        if layout.positions[VoltageSource]:
            values[:, cols[VoltageSource][:, 4]] = source_scale * self._sources(
                VoltageSource, time
            )
        if layout.positions[CurrentSource]:
            current = source_scale * self._sources(CurrentSource, time)
            values[:, cols[CurrentSource].ravel()] = _pattern(current, _INJECTION)
        if dt > 0.0 and layout.positions[Capacitor]:
            conductance = self._rows["capacitance"] / dt
            v_prev = 0.0
            if x_prev is not None:
                a, b = layout.nodes[Capacitor]
                xe = _with_ground(x_prev)
                v_prev = xe[:, a] - xe[:, b]
            n, m = conductance.shape
            slots = np.empty((n, m, 6))
            slots[:, :, :4] = conductance[:, :, None] * _CONDUCTANCE
            # the companion source injects g·v_prev into the first terminal
            # (negating twice is exact)
            slots[:, :, 4:] = -(conductance * v_prev)[:, :, None] * _INJECTION
            values[:, cols[Capacitor].ravel()] = slots.reshape(n, -1)
        return values

    def assemble(
        self, x: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every row's linearized system ``G @ x_new = rhs`` around ``x``.

        ``x`` is ``(K, size)``; ``values`` comes from :meth:`contributions`
        and its nonlinear slots are overwritten in place.  Returns ``G``
        ``(K, size, size)`` and ``rhs`` ``(K, size)``.
        """
        layout = self._layout
        n = x.shape[0]
        xe = _with_ground(x)
        index = self._index
        if layout.positions[Diode]:
            rows = self._rows
            a, c = layout.nodes[Diode]
            vd = np.minimum(xe[:, a] - xe[:, c], rows["v_limit"])
            exp_term = np.exp(np.clip(vd / rows["n_vt"], -100.0, 80.0))
            i_d = rows["i_s"] * (exp_term - 1.0)
            g_d = np.maximum(rows["i_s"] * exp_term / rows["n_vt"], 1e-12)
            slots = np.empty(g_d.shape + (6,))
            slots[:, :, :4] = g_d[:, :, None] * _CONDUCTANCE
            slots[:, :, 4:] = (i_d - g_d * vd)[:, :, None] * _INJECTION
            values[:, layout.cols[Diode].ravel()] = slots.reshape(n, -1)
        if layout.positions[MOSFET]:
            index = self._mosfets(xe, values)
        system = np.bincount(
            index.ravel(),
            weights=values.ravel(),
            minlength=n * (layout.size + 1) * layout.stride,
        ).reshape(n, layout.size + 1, layout.stride)
        return system[:, :-1, :-2], system[:, :-1, -1]

    def _mosfets(self, xe: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Fill the MOSFET slots; returns every row's slot indices."""
        layout = self._layout
        sign = layout.mos_sign
        vd, vg, vs = xe[:, layout.nodes[MOSFET]].transpose(1, 0, 2)
        vgs = sign * (vg - vs)
        vds = sign * (vd - vs)
        swapped = vds < 0.0  # symmetric device: drain and source swap roles
        vgs = np.where(swapped, vgs - vds, vgs)
        vds = np.where(swapped, -vds, vds)
        i_d, gm, gds = level1_current(self._mos, vgs, vds)
        # linearization in raw node voltages on the effective terminals (the
        # sign folding cancels in the derivatives); ``sign * vds`` is exactly
        # the effective drain-source voltage, as ``a - b == -(b - a)``
        vs = np.where(swapped, vd, vs)
        i_eq = sign * i_d - gm * (vg - vs) - gds * (sign * vds)
        n, m = gm.shape
        slots = np.empty((n, m, 10))
        slots[:, :, :4] = gm[:, :, None] * _TRANSCONDUCTANCE
        slots[:, :, 4:8] = gds[:, :, None] * _CONDUCTANCE
        slots[:, :, 8:] = i_eq[:, :, None] * _INJECTION
        cols = layout.cols[MOSFET].ravel()
        values[:, cols] = slots.reshape(n, -1)
        index = self._index.copy()
        forward, backward = self._mos_index
        index[:, cols] = np.where(swapped[:, :, None], backward, forward).reshape(n, -1)
        return index


def _pattern(v: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``v ⊗ signs``: each element's slot values, flattened per row."""
    return (v[:, :, None] * signs).reshape(v.shape[0], -1)


def _with_ground(x: np.ndarray) -> np.ndarray:
    """``x`` with a trailing ground column of zeros."""
    xe = np.zeros((x.shape[0], x.shape[1] + 1))
    xe[:, :-1] = x
    return xe


def _solve(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Every row's ``G x = rhs``; a singular row comes back as NaN."""
    try:
        return np.linalg.solve(G, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for k in range(G.shape[0]):
            try:
                out[k] = np.linalg.solve(G[k : k + 1], rhs[k : k + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return out


def newton(
    stack: CircuitStack,
    x0: np.ndarray,
    *,
    max_iterations: int,
    v_tol: float,
    damping: float,
    time: float = 0.0,
    dt: float = 0.0,
    x_prev: np.ndarray | None = None,
    source_scale: float = 1.0,
    gmin: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton–Raphson on every row of ``stack`` in lockstep.

    Each iteration limits the node-voltage update to ``damping`` volts
    (branch currents follow freely) and converges a row once that update
    is below ``v_tol``.  A row fails on a singular or non-finite solve, or
    when ``max_iterations`` pass first.  The operating conditions are
    those of :meth:`CircuitStack.contributions`.

    Returns ``(x, iterations)``: each row's solution and the iteration that
    converged it, with ``iterations == 0`` (and ``x`` equal to ``x0``) for
    a failed row.
    """
    x_out = np.array(x0, dtype=float)
    iterations = np.zeros(len(stack), dtype=int)
    rows = np.arange(len(stack))
    x = x_out.copy()
    values = stack.contributions(
        time=time, dt=dt, x_prev=x_prev, source_scale=source_scale, gmin=gmin
    )
    nv = stack.n_nodes
    for iteration in range(1, max_iterations + 1):
        x_new = _solve(*stack.assemble(x, values))
        solved = np.isfinite(x_new).all(axis=1)
        any_failed = not solved.all()
        if any_failed:
            x_new[~solved] = x[~solved]
        delta = x_new - x
        step = np.abs(delta[:, :nv]).max(axis=1, initial=0.0)
        damped = step > damping
        if damped.any():
            delta[damped, :nv] *= (damping / step[damped])[:, None]
        x = x + delta
        converged = step < v_tol
        if any_failed:
            converged &= solved
        elif converged.all():
            x_out[rows], iterations[rows] = x, iteration
            break
        if any_failed or converged.any():
            x_out[rows[converged]] = x[converged]
            iterations[rows[converged]] = iteration
            keep = np.flatnonzero(solved & ~converged)
            if keep.size == 0:
                break
            rows, x = rows[keep], x[keep]
            stack = stack.take(keep)
            values = values[keep]
    return x_out, iterations
