"""Stacked MNA assembly and solves against the per-element reference.

The reference below is the element-by-element stamp loop and the
single-circuit Newton ladder the stacked code replaced.  Every comparison
is bitwise: a chunk of rows solved as one stack must give each row exactly
what it gets alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.mna import (
    MOSFET,
    VCCS,
    VCVS,
    Capacitor,
    Circuit,
    CircuitStack,
    ConvergenceError,
    CurrentSource,
    Diode,
    MOSParams,
    Resistor,
    VoltageSource,
    ldo_demo_objective,
    solve_dc,
    solve_dc_stack,
    solve_transient,
    sweep_source,
    sweep_source_stack,
    uvlo_demo_objective,
)
from repro.circuits.mna.elements import evaluate_waveform
from repro.circuits.mna.ldo_demo import LDO_DEMO_DIM
from repro.circuits.mna.stack import newton
from repro.circuits.mna.uvlo_demo import UVLO_DEMO_DIM, UVLODemo
from repro.runtime import BrokerConfig, EvaluationBroker
from repro.runtime.objective import Objective

# -- the per-element reference -------------------------------------------------


class _System:
    """``G @ x = rhs`` built one stamp at a time; node -1 is ground."""

    def __init__(self, n_nodes: int, size: int) -> None:
        self.n_nodes = n_nodes
        self.G = np.zeros((size, size))
        self.rhs = np.zeros(size)

    def conductance(self, i: int, j: int, g: float) -> None:
        if i >= 0:
            self.G[i, i] += g
        if j >= 0:
            self.G[j, j] += g
        if i >= 0 and j >= 0:
            self.G[i, j] -= g
            self.G[j, i] -= g

    def transconductance(self, out_p, out_n, ctrl_p, ctrl_n, gm: float) -> None:
        for out, sign_out in ((out_p, 1.0), (out_n, -1.0)):
            if out < 0:
                continue
            if ctrl_p >= 0:
                self.G[out, ctrl_p] += sign_out * gm
            if ctrl_n >= 0:
                self.G[out, ctrl_n] -= sign_out * gm

    def current(self, i: int, value: float) -> None:
        if i >= 0:
            self.rhs[i] += value

    def incidence(self, p: int, m: int, row: int) -> None:
        if p >= 0:
            self.G[p, row] += 1.0
            self.G[row, p] += 1.0
        if m >= 0:
            self.G[m, row] -= 1.0
            self.G[row, m] -= 1.0


def _v(x, node: int) -> float:
    return 0.0 if node < 0 else float(x[node])


def _stamp(element, system: _System, x, time, dt, x_prev, source_scale) -> None:
    nodes = element.nodes
    if isinstance(element, Resistor):
        system.conductance(*nodes, 1.0 / element.resistance)
    elif isinstance(element, Capacitor):
        if dt <= 0.0:
            return
        g = element.capacitance / dt
        n1, n2 = nodes
        v_prev = _v(x_prev, n1) - _v(x_prev, n2) if x_prev is not None else 0.0
        system.conductance(n1, n2, g)
        system.current(n1, g * v_prev)
        system.current(n2, -g * v_prev)
    elif isinstance(element, CurrentSource):
        current = source_scale * evaluate_waveform(element.value, time)
        system.current(nodes[0], -current)
        system.current(nodes[1], current)
    elif isinstance(element, VoltageSource):
        row = system.n_nodes + element.branch
        system.incidence(*nodes, row)
        system.rhs[row] += source_scale * evaluate_waveform(element.value, time)
    elif isinstance(element, VCVS):
        op, om, cp, cn = nodes
        row = system.n_nodes + element.branch
        system.incidence(op, om, row)
        if cp >= 0:
            system.G[row, cp] -= element.gain
        if cn >= 0:
            system.G[row, cn] += element.gain
    elif isinstance(element, VCCS):
        system.transconductance(*nodes, element.gm)
    elif isinstance(element, Diode):
        a, c = nodes
        vd = min(_v(x, a) - _v(x, c), element.v_crit + element.n_vt)
        exp_term = np.exp(np.clip(vd / element.n_vt, -100.0, 80.0))
        i_d = element.i_s * (exp_term - 1.0)
        g_d = max(element.i_s * exp_term / element.n_vt, 1e-12)
        i_eq = i_d - g_d * vd
        system.conductance(a, c, g_d)
        system.current(a, -i_eq)
        system.current(c, i_eq)
    else:  # MOSFET
        d, g, s = nodes
        op = element.operating_point(x)
        vd, vg, vs = _v(x, d), _v(x, g), _v(x, s)
        if op["swapped"]:
            d, s = s, d
            vd, vs = vs, vd
        gm, gds = op["gm"], op["gds"]
        i_eq = element.sign * op["id"] - gm * (vg - vs) - gds * (vd - vs)
        system.transconductance(d, s, g, s, gm)
        system.conductance(d, s, gds)
        if d >= 0:
            system.rhs[d] -= i_eq
        if s >= 0:
            system.rhs[s] += i_eq


def reference_assemble(
    circuit, x, time=0.0, dt=0.0, x_prev=None, source_scale=1.0, gmin=0.0
):
    system = _System(circuit.n_nodes, circuit.size)
    if gmin > 0.0:
        for i in range(circuit.n_nodes):
            system.G[i, i] += gmin
    for element in circuit.elements:
        _stamp(element, system, x, time, dt, x_prev, source_scale)
    return system.G, system.rhs


def reference_newton(circuit, x0, max_iterations, v_tol, damping, **conditions):
    x = x0.copy()
    for iteration in range(1, max_iterations + 1):
        G, rhs = reference_assemble(circuit, x, **conditions)
        try:
            x_new = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(x_new)):
            return None
        delta = x_new - x
        nv = circuit.n_nodes
        step = np.abs(delta[:nv]).max(initial=0.0)
        if step > damping:
            delta[:nv] *= damping / step
        x = x + delta
        if step < v_tol:
            return x, iteration
    return None


def reference_solve_dc(circuit, x0=None, max_iterations=150, v_tol=1e-9, damping=0.6):
    """``(x, iterations, strategy)`` of the single-circuit ladder."""
    solve = dict(max_iterations=max_iterations, v_tol=v_tol, damping=damping)
    x0 = np.zeros(circuit.size) if x0 is None else x0
    result = reference_newton(circuit, x0, **solve)
    if result is not None:
        return result[0], result[1], "newton"
    x, total = x0.copy(), 0
    for gmin in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 0.0):
        result = reference_newton(circuit, x, gmin=gmin, **solve)
        if result is None:
            break
        x, total = result[0], total + result[1]
    else:
        return x, total, "gmin-stepping"
    x, total = np.zeros(circuit.size), 0
    for scale in np.linspace(0.1, 1.0, 10):
        result = reference_newton(circuit, x, source_scale=float(scale), **solve)
        if result is None:
            raise ConvergenceError(f"reference ladder failed at scale {scale:.2f}")
        x, total = result[0], total + result[1]
    return x, total, "source-stepping"


# -- circuits -------------------------------------------------------------------


def every_element_circuit(rng) -> Circuit:
    """One circuit with every element type, values drawn from ``rng``."""
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    c = Circuit("every-element")
    c.add(VoltageSource("VDD", "vdd", "0", u(2.5, 3.5)))
    c.add(VoltageSource("VIN", "in", "0", lambda t, a=u(0.5, 1.5): a + 1e3 * t))
    c.add(CurrentSource("IB", "vdd", "bias", u(1e-5, 1e-4)))
    c.add(CurrentSource("IT", "out", "0", lambda t, a=u(1e-5, 5e-5): a * (1.0 + t)))
    c.add(Resistor("RB", "bias", "0", u(5e3, 2e4)))
    c.add(Resistor("RD", "vdd", "d1", u(5e3, 2e4)))
    c.add(Capacitor("C1", "d1", "0", u(1e-12, 1e-11)))
    c.add(Capacitor("C2", "out", "d1", u(1e-12, 1e-11)))
    c.add(VCVS("E1", "e", "0", "in", "bias", u(0.5, 2.0)))
    c.add(Resistor("RE", "e", "out", u(1e3, 1e4)))
    c.add(VCCS("G1", "out", "0", "d1", "e", u(1e-5, 1e-4)))
    c.add(Diode("D1", "out", "0", saturation_current=u(1e-15, 1e-13)))
    nmos = MOSParams(vth=u(0.4, 0.6), kp=u(1e-4, 3e-4), lambda_=u(0.0, 0.1))
    pmos = MOSParams(vth=u(0.4, 0.6), kp=u(5e-5, 2e-4), lambda_=u(0.0, 0.1))
    c.add(MOSFET("MN", "d1", "in", "0", nmos))
    c.add(MOSFET("MP", "out", "d1", "vdd", pmos, polarity="pmos"))
    c.add(MOSFET("MD", "bias", "bias", "0", nmos))  # diode-connected
    c.add(Resistor("RL", "out", "0", u(1e4, 1e5)))
    return c


def uvlo_circuits(n, seed):
    rng = np.random.default_rng(seed)
    return [UVLODemo(x).circuit for x in rng.uniform(-1.0, 1.0, (n, UVLO_DEMO_DIM))]


# -- assembly --------------------------------------------------------------------


class TestStackedAssembly:
    CONDITIONS = [
        {},
        {"gmin": 1e-4},
        {"source_scale": 0.3},
        {"gmin": 1e-6, "source_scale": 0.7},
        {"time": 2e-7, "dt": 1e-8, "with_prev": True},
        {"time": 1e-6, "dt": 5e-9, "with_prev": False},
    ]

    @pytest.mark.parametrize("conditions", CONDITIONS, ids=str)
    def test_matches_reference_stamps(self, conditions):
        rng = np.random.default_rng(7)
        circuits = [every_element_circuit(rng) for _ in range(12)]
        stack = CircuitStack(circuits)
        size = stack.size
        conditions = dict(conditions)
        x_prev = None
        if conditions.pop("with_prev", False):
            x_prev = rng.uniform(-1.0, 4.0, (len(circuits), size))
        regions = set()
        for _ in range(20):
            x = rng.uniform(-1.0, 4.0, (len(circuits), size))
            G, rhs = stack.assemble(x, stack.contributions(x_prev=x_prev, **conditions))
            for k, circuit in enumerate(circuits):
                G_ref, rhs_ref = reference_assemble(
                    circuit,
                    x[k],
                    x_prev=None if x_prev is None else x_prev[k],
                    **conditions,
                )
                np.testing.assert_array_equal(G[k], G_ref)
                np.testing.assert_array_equal(rhs[k], rhs_ref)
                for element in circuit.elements:
                    if isinstance(element, MOSFET):
                        op = element.operating_point(x[k])
                        region = (
                            "cutoff"
                            if op["vgs"] <= element.params.vth
                            else "saturation" if op["saturated"] else "triode"
                        )
                        regions.add((element.polarity, region, op["swapped"]))
        # every polarity saw every region, with and without the swap
        assert len(regions) == 12

    def test_rejects_mixed_topologies(self):
        a = Circuit()
        a.add(VoltageSource("V", "a", "0", 1.0))
        a.add(Resistor("R", "a", "0", 1e3))
        b = Circuit()
        b.add(VoltageSource("V", "a", "0", 1.0))
        b.add(Resistor("R", "a", "b", 1e3))
        with pytest.raises(ValueError, match="differs in topology"):
            CircuitStack([a, b])
        with pytest.raises(ValueError, match="at least one"):
            CircuitStack([])

    def test_rejects_unknown_element(self):
        from repro.circuits.mna import Element

        c = Circuit()
        c.add(Element("X1", "a", "0"))
        with pytest.raises(TypeError, match="no MNA model"):
            CircuitStack([c])


# -- solves ----------------------------------------------------------------------


class TestStackedSolves:
    def test_dc_stack_matches_rows_and_reference(self):
        circuits = uvlo_circuits(10, seed=3)
        stacked = solve_dc_stack(circuits)
        for circuit, solution in zip(circuits, stacked):
            alone = solve_dc(circuit)
            x, iterations, strategy = reference_solve_dc(circuit)
            np.testing.assert_array_equal(solution.x, alone.x)
            np.testing.assert_array_equal(solution.x, x)
            assert (solution.iterations, solution.strategy) == (iterations, strategy)
            assert (alone.iterations, alone.strategy) == (iterations, strategy)

    @staticmethod
    def ladder_circuits():
        rngs = [np.random.default_rng(500 + i) for i in range(16)]
        return [every_element_circuit(rng) for rng in rngs]

    def test_ladder_rows_match_reference(self):
        """At 12 iterations some rows need gmin and some source stepping."""
        circuits = self.ladder_circuits()
        stacked = solve_dc_stack(circuits, max_iterations=12)
        strategies = set()
        for circuit, solution in zip(circuits, stacked):
            x, iterations, strategy = reference_solve_dc(circuit, max_iterations=12)
            np.testing.assert_array_equal(solution.x, x)
            assert (solution.iterations, solution.strategy) == (iterations, strategy)
            alone = solve_dc(circuit, max_iterations=12)
            np.testing.assert_array_equal(alone.x, x)
            strategies.add(strategy)
        assert strategies == {"newton", "gmin-stepping", "source-stepping"}

    def test_row_failing_every_stage_raises(self):
        """At 10 iterations some rows fail source stepping as well."""
        circuits = self.ladder_circuits()
        failing = []
        for circuit in circuits:
            try:
                reference_solve_dc(circuit, max_iterations=10)
            except ConvergenceError:
                failing.append(circuit)
        assert 0 < len(failing) < len(circuits)
        with pytest.raises(ConvergenceError, match="source scale"):
            solve_dc_stack(circuits, max_iterations=10)

    def test_sweep_stack_matches_rows_and_reference(self):
        demos = [UVLODemo(x) for x in np.random.default_rng(9).uniform(-1, 1, (6, 8))]
        vdd = np.linspace(UVLODemo.VDD_MAX, 0.8, 41)
        stacked = sweep_source_stack(
            [d.circuit for d in demos], [d.vdd_source for d in demos], vdd
        )
        for demo, sweep in zip(demos, stacked):
            alone = sweep_source(demo.circuit, demo.vdd_source, vdd)
            np.testing.assert_array_equal(sweep.states, alone.states)
            x_prev = None
            for i, value in enumerate(vdd):
                demo.vdd_source.value = float(value)
                x_prev = reference_solve_dc(demo.circuit, x_prev)[0]
                np.testing.assert_array_equal(sweep.states[i], x_prev)
            assert demo.vdd_source.value == float(vdd[-1])

    def test_sweep_restores_every_source(self):
        demos = [UVLODemo(), UVLODemo(np.full(8, 0.3))]
        sweep_source_stack(
            [d.circuit for d in demos], [d.vdd_source for d in demos], [3.0, 2.0]
        )
        assert [d.vdd_source.value for d in demos] == [UVLODemo.VDD_MAX] * 2

    def test_transient_matches_reference_steps(self):
        circuit = every_element_circuit(np.random.default_rng(4))
        x0 = solve_dc(circuit).x
        result = solve_transient(circuit, t_stop=2e-8, dt=5e-9, x0=x0)
        t, x, states = 0.0, x0.copy(), [x0]
        while t < 2e-8 - 1e-15:
            sub = min(5e-9, 2e-8 - t)
            for _ in range(5):
                step = reference_newton(
                    circuit, x, 100, 1e-7, 1.0, time=t + sub, dt=sub, x_prev=x
                )
                if step is not None:
                    break
                sub *= 0.5
            t, x = t + sub, step[0]
            states.append(x)
        np.testing.assert_array_equal(result.states, np.asarray(states))


class TestSingularRows:
    @staticmethod
    def circuit(gm: float) -> Circuit:
        """A node whose net conductance is ``1e-3 + gm`` (singular at -1e-3)."""
        c = Circuit()
        c.add(CurrentSource("I1", "0", "n", 1e-3))
        c.add(Resistor("R1", "n", "0", 1e3))
        c.add(VCCS("G1", "n", "0", "n", "0", gm))
        return c

    def test_singular_row_fails_alone(self):
        gms = [1e-3, -1e-3, 2e-3]
        stack = CircuitStack([self.circuit(gm) for gm in gms])
        x0 = np.zeros((3, stack.size))
        x, iterations = newton(stack, x0, max_iterations=20, v_tol=1e-9, damping=0.6)
        assert iterations[1] == 0 and iterations[0] > 0 and iterations[2] > 0
        np.testing.assert_array_equal(x[1], x0[1])
        for k in (0, 2):
            alone = solve_dc(self.circuit(gms[k]))
            np.testing.assert_array_equal(x[k], alone.x)

    def test_unsolvable_row_raises_for_the_stack(self):
        with pytest.raises(ConvergenceError, match="source scale"):
            solve_dc_stack([self.circuit(gm) for gm in (1e-3, -1e-3)])

    def test_broker_isolates_the_failing_row(self):
        """The chunk raises; its rows re-run alone and only one fails."""

        class Singular(Objective):
            dim = 1
            prefers_batch = True

            def __init__(self) -> None:
                self.calls: list[int] = []

            def evaluate(self, X):
                self.calls.append(len(X))
                circuits = [TestSingularRows.circuit(float(x[0])) for x in X]
                return np.array([s.voltage("n") for s in solve_dc_stack(circuits)])

        objective = Singular()
        X = np.array([[1e-3], [-1e-3], [2e-3]])
        broker = EvaluationBroker(
            objective, BrokerConfig(max_retries=0, failure_policy="skip")
        )
        batch = broker.evaluate_batch(X)
        assert objective.calls == [3, 1, 1, 1]
        np.testing.assert_array_equal(batch.index, [0, 2])
        expected = [solve_dc(self.circuit(gm)).voltage("n") for gm in (1e-3, 2e-3)]
        np.testing.assert_array_equal(batch.y, expected)


# -- objectives -------------------------------------------------------------------


class TestChunkObjectives:
    def test_uvlo_chunk_equals_rows(self):
        objective = uvlo_demo_objective()
        assert objective.prefers_batch
        X = np.random.default_rng(11).uniform(-1.0, 1.0, (9, UVLO_DEMO_DIM))
        chunk = objective.evaluate(X)
        rows = np.concatenate([objective.evaluate(x[None, :]) for x in X])
        np.testing.assert_array_equal(chunk, rows)
        nominal = UVLODemo().turn_off_threshold()
        single = [abs(UVLODemo(x).turn_off_threshold() - nominal) for x in X]
        np.testing.assert_array_equal(chunk, single)

    @pytest.mark.parametrize(
        "measure",
        ["output_voltage", "quiescent_current", "load_regulation", "undershoot"],
    )
    def test_ldo_chunk_equals_rows(self, measure):
        from repro.circuits.mna.ldo_demo import LDODemo

        objective = ldo_demo_objective(measure)
        X = np.random.default_rng(12).uniform(-1.0, 1.0, (5, LDO_DEMO_DIM))
        chunk = objective.evaluate(X)
        rows = np.concatenate([objective.evaluate(x[None, :]) for x in X])
        np.testing.assert_array_equal(chunk, rows)
        single = [getattr(LDODemo(x), measure)() for x in X]
        np.testing.assert_array_equal(chunk, single)


# -- node lookups ---------------------------------------------------------------------


class TestNodeLookup:
    @staticmethod
    def divider():
        c = Circuit()
        vs = c.add(VoltageSource("V1", "in", "0", 12.0))
        c.add(Resistor("R1", "in", "mid", 2000.0))
        c.add(Resistor("R2", "mid", "0", 1000.0))
        c.add(Capacitor("C1", "mid", "0", 1e-9))
        return c, vs

    def test_circuit_voltage_unknown_node(self):
        c, _ = self.divider()
        x = solve_dc(c).x
        with pytest.raises(KeyError, match="no node 'typo'.*in, mid"):
            c.voltage(x, "typo")
        assert c.size == 3
        assert c.voltage(x, "gnd") == 0.0

    def test_dc_solution_voltage_unknown_node(self):
        c, _ = self.divider()
        solution = solve_dc(c)
        with pytest.raises(KeyError, match="known nodes: in, mid"):
            solution.voltage("typo")
        assert c.size == 3
        # the old solution still warm-starts a new solve
        again = solve_dc(c, x0=solution.x)
        assert again.voltage("mid") == pytest.approx(4.0)

    def test_sweep_result_voltage_unknown_node(self):
        c, vs = self.divider()
        sweep = sweep_source(c, vs, [1.0, 2.0])
        with pytest.raises(KeyError, match="no node 'typo'"):
            sweep.voltage("typo")
        assert c.size == 3
        np.testing.assert_array_equal(sweep.voltage("0"), [0.0, 0.0])

    def test_transient_result_voltage_unknown_node(self):
        c, _ = self.divider()
        result = solve_transient(c, t_stop=1e-6, dt=5e-7)
        with pytest.raises(KeyError, match="no node 'typo'"):
            result.voltage("typo")
        assert c.size == 3
