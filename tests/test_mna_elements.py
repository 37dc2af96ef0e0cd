"""Tests for the MNA engine: linear elements and DC solves."""

import pytest

from repro.circuits.mna import (
    Capacitor,
    Circuit,
    CurrentSource,
    Diode,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
    solve_dc,
)


class TestResistiveNetworks:
    def test_voltage_divider(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 12.0))
        c.add(Resistor("R1", "in", "mid", 2000.0))
        c.add(Resistor("R2", "mid", "0", 1000.0))
        sol = solve_dc(c)
        assert sol.voltage("mid") == pytest.approx(4.0)

    def test_source_branch_current(self):
        c = Circuit()
        vs = c.add(VoltageSource("V1", "in", "0", 10.0))
        c.add(Resistor("R1", "in", "0", 1000.0))
        sol = solve_dc(c)
        # MNA branch current convention: current into the + terminal
        assert abs(sol.branch_current(vs)) == pytest.approx(0.01)

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.add(CurrentSource("I1", "0", "n1", 1e-3))  # pushes into n1
        c.add(Resistor("R1", "n1", "0", 1000.0))
        sol = solve_dc(c)
        assert sol.voltage("n1") == pytest.approx(1.0)

    def test_wheatstone_bridge_balanced(self):
        c = Circuit()
        c.add(VoltageSource("V1", "top", "0", 5.0))
        for name, a, b in [
            ("R1", "top", "l"), ("R2", "top", "r"), ("R3", "l", "0"), ("R4", "r", "0"),
        ]:
            c.add(Resistor(name, a, b, 1000.0))
        c.add(Resistor("Rg", "l", "r", 500.0))
        sol = solve_dc(c)
        assert sol.voltage("l") == pytest.approx(sol.voltage("r"))

    def test_floating_via_ground_alias(self):
        c = Circuit()
        c.add(VoltageSource("V1", "a", "gnd", 3.0))
        c.add(Resistor("R1", "a", "GND", 100.0))
        sol = solve_dc(c)
        assert sol.voltage("a") == pytest.approx(3.0)

    def test_rejects_nonpositive_resistance(self):
        with pytest.raises(ValueError):
            Resistor("R", "a", "b", 0.0)


class TestControlledSources:
    def test_vcvs_gain(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 2.0))
        c.add(VCVS("E1", "out", "0", "in", "0", gain=3.0))
        c.add(Resistor("RL", "out", "0", 1000.0))
        sol = solve_dc(c)
        assert sol.voltage("out") == pytest.approx(6.0)

    def test_vccs_into_load(self):
        c = Circuit()
        c.add(VoltageSource("V1", "ctrl", "0", 1.0))
        # SPICE G convention: current flows out+ -> out- through the source,
        # i.e. it is pulled out of node "out"
        c.add(VCCS("G1", "out", "0", "ctrl", "0", gm=1e-3))
        c.add(Resistor("RL", "out", "0", 1000.0))
        sol = solve_dc(c)
        assert sol.voltage("out") == pytest.approx(-1.0)

    def test_vcvs_differential_control(self):
        c = Circuit()
        c.add(VoltageSource("Va", "a", "0", 3.0))
        c.add(VoltageSource("Vb", "b", "0", 1.0))
        c.add(VCVS("E1", "out", "0", "a", "b", gain=2.0))
        c.add(Resistor("RL", "out", "0", 1.0))
        sol = solve_dc(c)
        assert sol.voltage("out") == pytest.approx(4.0)


class TestDiode:
    def test_forward_drop_near_0p7(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 5.0))
        c.add(Resistor("R1", "in", "d", 1000.0))
        c.add(Diode("D1", "d", "0"))
        sol = solve_dc(c)
        assert 0.55 < sol.voltage("d") < 0.8

    def test_reverse_blocks(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", -5.0))
        c.add(Resistor("R1", "in", "d", 1000.0))
        c.add(Diode("D1", "d", "0"))
        sol = solve_dc(c)
        assert sol.voltage("d") == pytest.approx(-5.0, abs=0.01)

    def test_series_diodes_stack_drops(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 5.0))
        c.add(Resistor("R1", "in", "d1", 1000.0))
        c.add(Diode("D1", "d1", "d2"))
        c.add(Diode("D2", "d2", "0"))
        sol = solve_dc(c)
        assert 1.1 < sol.voltage("d1") < 1.6


class TestCapacitorDC:
    def test_open_in_dc(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 5.0))
        c.add(Resistor("R1", "in", "out", 1000.0))
        c.add(Capacitor("C1", "out", "0", 1e-6))
        sol = solve_dc(c)
        assert sol.voltage("out") == pytest.approx(5.0)  # no DC path to gnd


class TestSolverRobustness:
    def test_time_varying_source_evaluated_at_zero(self):
        c = Circuit()
        c.add(VoltageSource("V1", "a", "0", lambda t: 2.0 + t))
        c.add(Resistor("R1", "a", "0", 100.0))
        sol = solve_dc(c)
        assert sol.voltage("a") == pytest.approx(2.0)

    def test_branch_current_requires_branch(self):
        c = Circuit()
        r = c.add(Resistor("R1", "a", "0", 100.0))
        c.add(VoltageSource("V1", "a", "0", 1.0))
        sol = solve_dc(c)
        with pytest.raises(ValueError):
            sol.branch_current(r)
