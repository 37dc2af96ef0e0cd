"""Tests for transient integration, DC sweep and measurements."""

import numpy as np
import pytest

from repro.circuits.mna import (
    Capacitor,
    Circuit,
    CurrentSource,
    Resistor,
    VoltageSource,
    overshoot,
    settles_within,
    solve_transient,
    sweep_source,
    threshold_crossings,
    undershoot,
)


def rc_circuit(tau_r=1e3, tau_c=1e-6, source=None):
    c = Circuit()
    c.add(VoltageSource("V1", "in", "0", source if source else 1.0))
    c.add(Resistor("R1", "in", "out", tau_r))
    c.add(Capacitor("C1", "out", "0", tau_c))
    return c


class TestTransient:
    def test_rc_step_response(self):
        c = rc_circuit(source=lambda t: 1.0 if t > 0 else 0.0)
        result = solve_transient(c, t_stop=5e-3, dt=2e-5, x0=np.zeros(c.size))
        v = result.voltage("out")
        # value at t = tau is 1 - 1/e; BE is first order so tolerance is loose
        idx = np.searchsorted(result.time, 1e-3)
        assert v[idx] == pytest.approx(1.0 - np.exp(-1.0), abs=0.03)
        assert v[-1] == pytest.approx(1.0, abs=0.01)

    def test_defaults_to_dc_initial_condition(self):
        c = rc_circuit(source=2.0)
        result = solve_transient(c, t_stop=1e-4, dt=1e-5)
        # starts at the DC solution: already charged
        assert result.voltage("out")[0] == pytest.approx(2.0)

    def test_time_axis(self):
        c = rc_circuit()
        result = solve_transient(c, t_stop=1e-4, dt=1e-5)
        assert result.time[0] == 0.0
        assert result.time[-1] == pytest.approx(1e-4)
        assert np.all(np.diff(result.time) > 0)

    def test_rc_discharge(self):
        c = Circuit()
        c.add(Resistor("R1", "out", "0", 1e3))
        c.add(Capacitor("C1", "out", "0", 1e-6))
        x0 = np.zeros(c.size)
        x0[c.node("out")] = 1.0
        result = solve_transient(c, t_stop=3e-3, dt=2e-5, x0=x0)
        idx = np.searchsorted(result.time, 1e-3)
        assert result.voltage("out")[idx] == pytest.approx(np.exp(-1.0), abs=0.03)

    def test_current_source_charges_capacitor_linearly(self):
        c = Circuit()
        c.add(CurrentSource("I1", "0", "out", 1e-3))  # 1 mA into out
        c.add(Capacitor("C1", "out", "0", 1e-6))
        c.add(Resistor("Rleak", "out", "0", 1e9))
        result = solve_transient(c, t_stop=1e-3, dt=1e-5, x0=np.zeros(c.size))
        # dv/dt = I/C = 1000 V/s -> 1 V at 1 ms
        assert result.voltage("out")[-1] == pytest.approx(1.0, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_transient(rc_circuit(), t_stop=0.0, dt=1e-6)


class TestSweep:
    def test_linear_circuit_sweep(self):
        c = Circuit()
        vs = c.add(VoltageSource("V1", "in", "0", 0.0))
        c.add(Resistor("R1", "in", "mid", 1e3))
        c.add(Resistor("R2", "mid", "0", 1e3))
        result = sweep_source(c, vs, np.linspace(0, 10, 11))
        np.testing.assert_allclose(result.voltage("mid"), np.linspace(0, 5, 11))

    def test_source_value_restored(self):
        c = Circuit()
        vs = c.add(VoltageSource("V1", "in", "0", 7.0))
        c.add(Resistor("R1", "in", "0", 1e3))
        sweep_source(c, vs, [0.0, 1.0])
        assert vs.value == 7.0

    def test_empty_values_rejected(self):
        c = Circuit()
        vs = c.add(VoltageSource("V1", "in", "0", 0.0))
        c.add(Resistor("R1", "in", "0", 1e3))
        with pytest.raises(ValueError):
            sweep_source(c, vs, [])


class TestMeasurements:
    def test_threshold_crossings_interpolated(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        wave = np.array([0.0, 1.0, 0.0, 1.0])
        rising = threshold_crossings(t, wave, 0.5, "rising")
        np.testing.assert_allclose(rising, [0.5, 2.5])
        falling = threshold_crossings(t, wave, 0.5, "falling")
        np.testing.assert_allclose(falling, [1.5])
        both = threshold_crossings(t, wave, 0.5, "both")
        assert both.size == 3

    def test_no_crossings(self):
        t = np.linspace(0, 1, 5)
        assert threshold_crossings(t, np.zeros(5), 0.5).size == 0

    def test_undershoot_overshoot(self):
        wave = np.array([1.0, 0.7, 1.2, 1.0])
        assert undershoot(wave, 1.0) == pytest.approx(0.3)
        assert overshoot(wave, 1.0) == pytest.approx(0.2)
        assert undershoot(np.array([1.0, 1.1]), 1.0) == 0.0

    def test_settles_within(self):
        t = np.linspace(0, 1, 11)
        wave = np.concatenate([np.full(5, 0.5), np.full(6, 1.0)])
        assert settles_within(t, wave, target=1.0, tolerance=0.05, after=0.5)
        assert not settles_within(t, wave, target=1.0, tolerance=0.05, after=0.0)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            threshold_crossings(np.zeros(2), np.zeros(2), 0.0, "sideways")
